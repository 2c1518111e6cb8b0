"""Tests for prototypes, nearest-prototype posteriors, and the sub baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tafssl import classify
from tafssl.classify import build_prototypes, l2_normalize_rows, nn_classify, sub, sub_star
from tafssl.linalg import NumericalWarning


def random_instance(seed, n_classes=4, d=6, n_queries=9):
    rng = np.random.default_rng(seed)
    support = rng.normal(size=(n_classes * 3, d))
    labels = np.repeat(np.arange(n_classes), 3)
    queries = rng.normal(size=(n_queries, d))
    return support, labels, queries


class TestBuildPrototypes:
    def test_one_shot_prototypes_are_supports(self):
        support = np.array([[1.0, 2.0], [3.0, 4.0]])
        protos = build_prototypes(support, [0, 1])
        np.testing.assert_array_equal(protos.vectors, support)

    def test_mean(self):
        protos = build_prototypes([[0.0, 0.0], [2.0, 2.0]], [7, 7])
        np.testing.assert_allclose(protos.vectors, [[1.0, 1.0]])
        assert protos.class_ids.tolist() == [7]

    def test_class_order_ascending(self):
        protos = build_prototypes([[1.0], [2.0], [3.0]], [2, 0, 1])
        assert protos.class_ids.tolist() == [0, 1, 2]
        np.testing.assert_allclose(protos.vectors[:, 0], [2.0, 3.0, 1.0])

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_labels_of_the_wrong_length_fail(self, n_labels):
        with pytest.raises(ValueError, match="^labels length must match support rows$"):
            build_prototypes(np.ones((2, 3)), np.arange(n_labels))

    def test_five_shot_concentration(self):
        # Prototype error shrinks like sigma/sqrt(shots); allow a wide margin.
        rng = np.random.default_rng(0)
        d, shots = 8, 5
        means = rng.normal(0, 5, size=(5, d))
        support = np.vstack([rng.normal(means[i], 1.0, size=(shots, d)) for i in range(5)])
        labels = np.repeat(np.arange(5), shots)
        protos = build_prototypes(support, labels)
        dist = np.linalg.norm(protos.vectors - means, axis=1)
        assert np.all(dist < 3.0 * np.sqrt(d / shots))


class TestNnClassify:
    def test_equidistant_is_uniform(self):
        protos = build_prototypes(np.eye(3), [0, 1, 2])
        _, post = nn_classify(np.zeros((2, 3)), protos)
        np.testing.assert_allclose(post, np.full((2, 3), 1 / 3), atol=1e-12)

    def test_well_separated_is_confident(self):
        vectors = np.zeros((5, 5))
        for i in range(5):
            vectors[i, i] = 10.0 * (i + 1)
        protos = build_prototypes(vectors, np.arange(5))
        preds, post = nn_classify(vectors[3][None, :], protos)
        assert preds[0] == 3
        assert post[0, 3] > 0.99

    def test_tie_breaks_to_lowest_class(self):
        protos = build_prototypes([[-1.0], [1.0]], [0, 1])
        preds, _ = nn_classify([[0.0]], protos)
        assert preds[0] == 0

    def test_posterior_argmax_matches_prediction(self):
        for seed in range(10):
            support, labels, queries = random_instance(seed)
            protos = build_prototypes(support, labels)
            preds, post = nn_classify(queries, protos)
            np.testing.assert_array_equal(protos.class_ids[np.argmax(post, axis=1)], preds)

    def test_rows_sum_to_one(self):
        support, labels, queries = random_instance(42)
        _, post = nn_classify(queries * 100, build_prototypes(support, labels))
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)
        assert np.isfinite(post).all()

    def test_scale_invariant_argmax_only(self):
        support, labels, queries = random_instance(3)
        protos = build_prototypes(support, labels)
        preds, post = nn_classify(queries, protos)
        protos2 = build_prototypes(support * 0.37, labels)
        preds2, post2 = nn_classify(queries * 0.37, protos2)
        np.testing.assert_array_equal(preds, preds2)
        assert not np.allclose(post, post2)  # posteriors legitimately move

    def test_distance_shift_invariance(self):
        # Adding a common constant to all squared distances cancels in softmax:
        # shifting queries away from everything uniformly must not change preds.
        support, labels, queries = random_instance(4)
        protos = build_prototypes(support, labels)
        preds, _ = nn_classify(queries, protos)
        extra = np.full((queries.shape[0], 1), 123.0)
        wide_support = np.hstack([support, np.zeros((support.shape[0], 1))])
        preds2, _ = nn_classify(np.hstack([queries, extra]), build_prototypes(wide_support, labels))
        np.testing.assert_array_equal(preds, preds2)

    def test_dimension_mismatch(self):
        protos = build_prototypes([[1.0, 2.0]], [0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            nn_classify([[1.0]], protos)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6))
    def test_posterior_hygiene_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-3, 4)
        support, labels, queries = random_instance(seed)
        _, post = nn_classify(queries * scale, build_prototypes(support * scale, labels))
        assert np.isfinite(post).all()
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)
        assert post.min() >= 0.0 and post.max() <= 1.0


@pytest.fixture
def center_and_normalize(monkeypatch):
    """``center_and_normalize(S, Q, head)``: the support and queries the sub
    ``head`` hands to its ``nn`` step, that is centered and L2-normalized."""
    seen = []
    for name in ("build_prototypes", "nn_classify"):  # called in this order
        original = getattr(classify, name)
        monkeypatch.setattr(classify, name, lambda X, *args, _f=original: seen.append(X) or _f(X, *args))

    def run(S, Q, head=sub):
        seen.clear()
        head(S, np.arange(len(S)), Q, None, 0)
        return tuple(seen)

    return run


class TestCenterAndNormalize:
    """The sub heads, with the support rows normalized first: ``sub``
    centers support and queries on their joint mean, ``sub_star`` each on
    its own."""

    def test_identical_sets_agree_across_modes(self, center_and_normalize):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 4))
        S1, Q1 = center_and_normalize(X, X, sub)
        S2, Q2 = center_and_normalize(X, X, sub_star)
        np.testing.assert_allclose(S1, S2, atol=1e-12)
        np.testing.assert_allclose(Q1, Q2, atol=1e-12)

    def test_unit_norms(self, center_and_normalize):
        rng = np.random.default_rng(6)
        S, Q = center_and_normalize(rng.normal(size=(8, 3)), rng.normal(size=(11, 3)))
        for M in (S, Q):
            np.testing.assert_allclose(np.linalg.norm(M, axis=1), 1.0, atol=1e-12)

    def test_joint_shift_invariance(self, center_and_normalize):
        rng = np.random.default_rng(7)
        S = rng.normal(size=(6, 5))
        Q = rng.normal(size=(9, 5))
        shift = rng.normal(size=5) * 10
        a = center_and_normalize(S, Q, sub)
        b = center_and_normalize(S + shift, Q + shift, sub)
        np.testing.assert_allclose(a[0], b[0], atol=1e-9)
        np.testing.assert_allclose(a[1], b[1], atol=1e-9)

    def test_zero_rows_pass_through_with_warning(self, center_and_normalize):
        S = np.array([[1.0, 0.0], [-1.0, 0.0]])
        Q = np.array([[0.0, 0.0]])  # sits exactly at the joint mean
        with pytest.warns(NumericalWarning):
            S2, Q2 = center_and_normalize(S, Q, sub)
        np.testing.assert_allclose(Q2[0], [0.0, 0.0])
        np.testing.assert_allclose(np.linalg.norm(S2, axis=1), 1.0)

    def test_sub_heads_take_lists(self):
        S, Q = [[1.0, 2.0], [0.0, 1.0]], [[1.0, 2.0], [0.0, 0.5]]
        for head in (sub, sub_star):
            assert np.array_equal(head(S, [0, 1], Q, None, 0), head(np.array(S), [0, 1], np.array(Q), None, 0))

    def test_l2_normalize_rows(self):
        X = np.array([[3.0, 4.0], [0.0, 0.0]])
        with pytest.warns(NumericalWarning):
            Y = l2_normalize_rows(X)
        np.testing.assert_allclose(Y[0], [0.6, 0.8])
        np.testing.assert_allclose(Y[1], [0.0, 0.0])


def _ref_build_prototypes(support, labels):
    """build_prototypes in its plainest form, one boolean mask per class: the
    oracle it must match bit for bit.  The library computes the same masks;
    this copy stays so that a faster form cannot drift from them unseen."""
    support = np.asarray(support, dtype=np.float64)
    labels = np.asarray(labels)
    class_ids = np.unique(labels)
    vectors = np.empty((len(class_ids), support.shape[1]))
    for i, cid in enumerate(class_ids):
        mask = labels == cid
        if not mask.any():
            raise ValueError(f"class {cid} has no support samples")
        vectors[i] = support[mask].mean(axis=0)
    return vectors, class_ids


class TestBuildPrototypesMatchesLoopReference:
    @pytest.mark.parametrize("m", [4, 64, 1024])
    @pytest.mark.parametrize("counts", [[1] * 5, [3] * 5, [5] * 5, [1, 4, 2, 7, 3]])
    def test_prototypes(self, m, counts):
        for seed in range(3):
            rng = np.random.default_rng((m, seed))
            labels = rng.permutation(np.repeat(np.arange(len(counts)), counts)) * 3 + 5
            support = rng.normal(size=(labels.size, m)) * rng.uniform(0.1, 100.0, size=m)
            got = build_prototypes(support, labels)
            vectors, class_ids = _ref_build_prototypes(support, labels)
            assert np.array_equal(got.vectors, vectors) and np.array_equal(got.class_ids, class_ids)
