"""Tests for episode sampling, the synthetic generator, and the MI diagnostic."""

import re

import numpy as np
import pytest

from tafssl.classify import build_prototypes, nn_classify
from tafssl.episodes import (
    DISTRACTOR_LABEL,
    Episode,
    EpisodeSpec,
    FeatureStore,
    MoGSpec,
    REFERENCE_CLASSES,
    REFERENCE_PER_CLASS,
    REFERENCE_STORE_SEED,
    generate_mog_store,
    mutual_information_diagnostic,
    reference_mog_spec,
    reference_store,
    sample_episode,
)


def small_store(seed=0, n_classes=10, per_class=60, m=6):
    return generate_mog_store(MoGSpec(m=m, signal_dims=m // 2), n_classes, per_class, seed)


class TestFeatureStore:
    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError, match="disagree"):
            FeatureStore(classes={0: np.ones((2, 3)), 1: np.ones((2, 4))})

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite value in class 0, row 0"):
            FeatureStore(classes={0: np.array([[1.0, np.inf]])})

    def test_rejects_zero_width_rows(self):
        with pytest.raises(ValueError, match="feature dimension m must be >= 1, got 0"):
            FeatureStore(classes={0: np.ones((3, 0)), 1: np.ones((3, 0))})

    @pytest.mark.parametrize(
        "dtypes,expected",
        [
            ((np.float32, np.float32), np.float32),
            ((np.float32, np.float64), np.float64),
            ((np.int64, np.float32), np.float64),
        ],
        ids=["all-float32", "mixed-float", "integer"],
    )
    def test_one_dtype_per_store(self, dtypes, expected):
        store = FeatureStore(classes={c: np.ones((2, 3), dtype=t) for c, t in enumerate(dtypes)})
        assert [X.dtype for X in store.classes.values()] == [expected] * len(dtypes)

    @pytest.mark.parametrize("ids,message", [((1.2, 1.7), "class id 1.2 is not an integer"), (("a",), "class id 'a' is not an integer")])
    def test_rejects_non_integer_class_ids(self, ids, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FeatureStore(classes={cid: np.ones((2, 3)) for cid in ids})

    def test_numpy_integer_class_ids_become_ints(self):
        store = FeatureStore(classes={np.int64(4): np.ones((2, 3)), np.uint32(1): np.zeros((2, 3))})
        assert [type(c) for c in store.classes] == [int, int] and list(store.classes) == [4, 1]

    def test_stacked(self):
        store = FeatureStore(classes={1: np.ones((2, 2)), 0: np.zeros((3, 2))})
        X, y = store.stacked()
        assert X.shape == (5, 2)
        assert y.tolist() == [0, 0, 0, 1, 1]


class TestSampleEpisode:
    def test_counts(self):
        ep = sample_episode(small_store(), EpisodeSpec(ways=5, shots=1, queries=15, seed=0))
        assert ep.support.shape[0] == 5
        assert ep.query.shape[0] == 75
        assert ep.unlabeled.shape[0] == 0
        assert sorted(np.unique(ep.support_labels)) == [0, 1, 2, 3, 4]
        assert np.bincount(ep.query_labels).tolist() == [15] * 5

    def test_deterministic(self):
        store = small_store()
        spec = EpisodeSpec(seed=123)
        a, b = sample_episode(store, spec), sample_episode(store, spec)
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.query, b.query)
        assert a.class_ids == b.class_ids

    def test_different_seeds_differ(self):
        store = small_store()
        a = sample_episode(store, EpisodeSpec(seed=1))
        b = sample_episode(store, EpisodeSpec(seed=2))
        assert not np.array_equal(a.query, b.query)

    def test_disjoint_within_class(self):
        store = small_store()
        spec = EpisodeSpec(ways=4, shots=3, queries=5, unlabeled=6, mode="semi", seed=9)
        ep = sample_episode(store, spec)
        for local, cid in enumerate(ep.class_ids):
            rows = {tuple(r) for r in store.classes[cid]}
            taken = [tuple(r) for r in ep.support[ep.support_labels == local]]
            taken += [tuple(r) for r in ep.query[ep.query_labels == local]]
            taken += [tuple(r) for r in ep.unlabeled[ep.unlabeled_labels == local]]
            assert len(taken) == len(set(taken))  # no sample reused
            assert set(taken) <= rows

    def test_semi_with_distractors(self):
        store = small_store()
        spec = EpisodeSpec(ways=3, unlabeled=4, distractors=2, mode="semi", seed=5)
        ep = sample_episode(store, spec)
        assert ep.unlabeled.shape[0] == (3 + 2) * 4
        assert (ep.unlabeled_labels == DISTRACTOR_LABEL).sum() == 8

    def test_transductive_rejects_unlabeled(self):
        with pytest.raises(ValueError, match="transductive"):
            EpisodeSpec(unlabeled=3)

    @pytest.mark.parametrize("setting", ["distractors", "unbalanced_r", "seed"])
    def test_negative_counts_rejected(self, setting):
        with pytest.raises(ValueError, match=f"{setting} must be >= 0"):
            EpisodeSpec(mode="semi", unlabeled=2, **{setting: -1})

    def test_a_negative_seed_part_is_rejected_when_the_spec_is_built(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            EpisodeSpec(seed=(0, -1))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown mode 'x'; choose from transductive, semi$"):
            EpisodeSpec(mode="x")

    def test_insufficient_samples_names_class(self):
        # The sampler applies a run's store rule and message: any class may
        # be a task class, at its worst-case unbalanced query count.
        store = FeatureStore(classes={i: np.random.default_rng(i).normal(size=(10, 3)) for i in range(6)})
        rows = "shots + queries + unbalanced_r + unlabeled"
        for spec, store_of, message in [
            (EpisodeSpec(ways=5, queries=50, seed=0), store, f"{rows} = 51, but the store's smallest class has 10 samples"),
            (EpisodeSpec(ways=2, queries=5, unbalanced_r=5, seed=0), store, f"{rows} = 11, but the store's smallest class has 10 samples"),
            (EpisodeSpec(ways=30), reference_store(), "ways + distractors = 30, but the store has 20 classes"),
            (EpisodeSpec(ways=5, mode="semi", unlabeled=1, distractors=2), store, "ways + distractors = 7, but the store has 6 classes"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                sample_episode(store_of, spec)

    def test_unbalanced_mean_matches_expectation(self):
        store = small_store(per_class=80)
        counts = []
        for i in range(2000):
            ep = sample_episode(store, EpisodeSpec(queries=15, unbalanced_r=10, seed=(77, i)))
            counts.extend(np.bincount(ep.query_labels, minlength=5).tolist())
        expected = 15 + 10 / 2
        assert abs(np.mean(counts) - expected) / expected < 0.02

    def test_unbalance_shares_supports_and_nests_queries(self):
        store = small_store(per_class=80)
        base = sample_episode(store, EpisodeSpec(queries=15, unbalanced_r=0, seed=4))
        skew = sample_episode(store, EpisodeSpec(queries=15, unbalanced_r=50, seed=4))
        assert np.array_equal(base.support, skew.support)
        for local in range(5):
            a = base.query[base.query_labels == local]
            b = skew.query[skew.query_labels == local]
            assert np.array_equal(a, b[: len(a)])


def _ref_generate_mog_store(spec, n_classes, per_class, seed=0):
    """The generator in its plainest form, one array per class: the oracle
    for the draws and values of the one-buffer generator."""
    rng = np.random.default_rng(seed)
    s = spec.signal_dims
    class_means = rng.normal(0.0, spec.sigma_between, size=(n_classes, s))
    classes: dict[int, np.ndarray] = {}
    for c in range(n_classes):
        X = np.empty((per_class, spec.m))
        if s:
            fired = rng.random((per_class, s)) < spec.rho_signal
            on_signal = rng.normal(class_means[c], spec.sigma_signal, size=(per_class, s))
            off_signal = rng.normal(spec.mu_noise, spec.sigma_noise, size=(per_class, s))
            X[:, :s] = np.where(fired, on_signal, off_signal)
        if s < spec.m:
            X[:, s:] = rng.normal(spec.mu_noise, spec.sigma_noise, size=(per_class, spec.m - s))
        classes[c] = X
    return FeatureStore(classes=classes), class_means


class TestMoGGenerator:
    @pytest.mark.parametrize(
        "spec,n_classes,per_class,seed",
        [
            (reference_mog_spec(), REFERENCE_CLASSES, REFERENCE_PER_CLASS, REFERENCE_STORE_SEED),
            (MoGSpec(m=1024, signal_dims=32, sigma_between=2.0), 20, 100, 0),
            (MoGSpec(m=16, signal_dims=0), 6, 9, 4),
            (MoGSpec(m=16, signal_dims=16), 6, 9, 5),
        ],
        ids=["reference", "wide", "no-signal", "all-signal"],
    )
    def test_matches_parent_generator_bit_for_bit(self, spec, n_classes, per_class, seed):
        store, means = generate_mog_store(spec, n_classes, per_class, seed, return_class_means=True)
        expected, expected_means = _ref_generate_mog_store(spec, n_classes, per_class, seed)
        assert means.tobytes() == expected_means.tobytes()
        assert list(store.classes) == list(expected.classes)
        for cid, X in expected.classes.items():
            assert store.classes[cid].shape == X.shape
            assert store.classes[cid].tobytes() == X.tobytes()

    def test_classes_are_row_views_of_one_buffer(self):
        store = generate_mog_store(MoGSpec(m=8, signal_dims=3), 5, 7, seed=1)
        buffer = store.classes[0].base
        assert buffer.shape == (35, 8) and buffer.dtype == np.float64 and buffer.flags.c_contiguous
        for c, X in store.classes.items():
            assert X.base is buffer and X.shape == (7, 8) and X.ctypes.data == buffer[7 * c].ctypes.data

    def test_zero_width_spec_is_rejected(self):
        with pytest.raises(ValueError, match="feature dimension m must be >= 1, got 0"):
            generate_mog_store(MoGSpec(m=0, signal_dims=0), 5, 4, seed=0)

    @pytest.mark.parametrize(
        "settings,message",
        [
            ({"signal_dims": -1}, "signal_dims must lie in [0, m]"),
            ({"signal_dims": 5}, "signal_dims must lie in [0, m]"),
            ({"rho_signal": -0.1}, "rho_signal must be a finite real number in [0, 1], got -0.1"),
            ({"rho_signal": 1.5}, "rho_signal must be a finite real number in [0, 1], got 1.5"),
        ],
        ids=["signal-below", "signal-above", "rho-below", "rho-above"],
    )
    def test_out_of_range_spec_is_rejected(self, settings, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MoGSpec(**{"m": 4, "signal_dims": 2, **settings})

    def test_deterministic(self):
        spec = MoGSpec(m=8, signal_dims=3)
        a = generate_mog_store(spec, 4, 10, seed=3)
        b = generate_mog_store(spec, 4, 10, seed=3)
        for cid in a.classes:
            assert np.array_equal(a.classes[cid], b.classes[cid])

    def test_noiseless_limit_collapses_to_class_means(self):
        spec = MoGSpec(m=6, signal_dims=6, rho_signal=1.0, sigma_signal=1e-9, sigma_between=3.0)
        store, means = generate_mog_store(spec, 8, 12, seed=0, return_class_means=True)
        for cid, X in store.classes.items():
            np.testing.assert_allclose(X, np.tile(means[cid], (12, 1)), atol=1e-6)
        ep = sample_episode(store, EpisodeSpec(ways=5, queries=5, seed=0))
        preds, _ = nn_classify(ep.query, build_prototypes(ep.support, ep.support_labels))
        assert (preds == ep.query_labels).mean() == 1.0

    def test_no_signal_dims_gives_chance_accuracy(self):
        store = generate_mog_store(MoGSpec(m=8, signal_dims=0), 10, 80, seed=1)
        accs = []
        for i in range(300):
            ep = sample_episode(store, EpisodeSpec(ways=5, queries=15, seed=(3, i)))
            preds, _ = nn_classify(ep.query, build_prototypes(ep.support, ep.support_labels))
            accs.append((preds == ep.query_labels).mean())
        assert abs(np.mean(accs) - 0.2) < 0.03

    def test_variance_decomposition(self):
        # Pooled per-dimension variance must match the two-component mixture
        # moments built from the realized class means: for a centered mixture
        # the variance is rho_n (mu_n^2 + s_n^2) + rho_s (mu_s^2 + s_s^2)
        # minus the squared mixture mean.
        spec = MoGSpec(m=16, signal_dims=6, rho_signal=0.8, mu_noise=0.0, sigma_noise=1.0, sigma_between=3.0, sigma_signal=1.0)
        store, cmeans = generate_mog_store(spec, 20, 500, seed=0, return_class_means=True)
        X, _ = store.stacked()
        rho_n = 1.0 - spec.rho_signal
        for d in range(spec.m):
            if d < spec.signal_dims:
                m2 = float((cmeans[:, d] ** 2).mean())
                mix_mean = rho_n * spec.mu_noise + spec.rho_signal * float(cmeans[:, d].mean())
                theory = (
                    rho_n * (spec.mu_noise**2 + spec.sigma_noise**2)
                    + spec.rho_signal * (m2 + spec.sigma_signal**2)
                    - mix_mean**2
                )
            else:
                theory = spec.sigma_noise**2
            assert abs(X[:, d].var() - theory) / theory < 0.05

    def test_pure_noise_variance(self):
        store = generate_mog_store(MoGSpec(m=4, signal_dims=0, sigma_noise=2.0), 5, 2000, seed=2)
        X, _ = store.stacked()
        np.testing.assert_allclose(X.var(axis=0), 4.0, rtol=0.05)


class TestMutualInformation:
    def test_label_copy_scores_one(self):
        y = np.repeat(np.arange(5), 40)
        X = y[:, None].astype(float)
        mi = mutual_information_diagnostic(X, y, bins=10)
        np.testing.assert_allclose(mi, [1.0], atol=1e-12)

    def test_independent_feature_scores_near_zero(self):
        rng = np.random.default_rng(3)
        n = 6000
        y = rng.integers(0, 5, size=n)
        X = rng.normal(size=(n, 1))
        assert mutual_information_diagnostic(X, y, bins=10)[0] <= 0.05

    def test_constant_dimension_scores_zero(self):
        y = np.repeat(np.arange(3), 10)
        X = np.ones((30, 2))
        np.testing.assert_array_equal(mutual_information_diagnostic(X, y), [0.0, 0.0])

    def test_range_is_unit_interval(self):
        store = small_store()
        mi = mutual_information_diagnostic(store)
        assert np.all(mi >= 0.0) and np.all(mi <= 1.0)

    def test_signal_dims_outrank_noise_dims_on_reference(self):
        mi = mutual_information_diagnostic(reference_store(), bins=32)
        assert mi[:8].mean() > mi[8:].mean()

    def test_a_single_label_scores_zero(self):
        X = np.random.default_rng(2).normal(size=(12, 3))
        np.testing.assert_array_equal(mutual_information_diagnostic(X, np.full(12, 4)), np.zeros(3))

    def test_labels_of_the_wrong_length_are_rejected(self):
        with pytest.raises(ValueError, match="^labels length must match feature rows$"):
            mutual_information_diagnostic(np.ones((4, 1)), [0, 1, 0])

    @pytest.mark.parametrize(
        "labels,message",
        [
            ((np.arange(6) % 3)[:, None], r"^labels must be 1-dimensional, got shape \(6, 1\)$"),
            (np.array([0.0, 1.0, 2.0, np.nan, 1.0, 2.0]), "^labels must not contain NaN$"),
        ],
        ids=["2-d", "nan"],
    )
    def test_bad_labels_are_named(self, labels, message):
        with pytest.raises(ValueError, match=message):
            mutual_information_diagnostic(np.arange(12.0).reshape(6, 2), labels)

    def test_rejects_few_bins(self):
        with pytest.raises(ValueError, match="bins"):
            mutual_information_diagnostic(np.ones((4, 1)), [0, 0, 1, 1], bins=1)

    @pytest.mark.parametrize("bins", [3.0, np.float64(32.0), "32"])
    def test_rejects_bins_that_are_not_integers(self, bins):
        X = np.arange(8.0)[:, None]
        with pytest.raises(ValueError, match=r"^bins must be an integer >= 2, got "):
            mutual_information_diagnostic(X, [0, 0, 0, 0, 1, 1, 1, 1], bins=bins)

    @pytest.mark.parametrize("bins", [np.int64(4), np.int32(4)])
    def test_accepts_python_and_numpy_integer_bins(self, bins):
        y = np.repeat(np.arange(4), 10)
        mi = mutual_information_diagnostic(y[:, None].astype(float), y, bins=bins)
        np.testing.assert_allclose(mi, [1.0], atol=1e-12)

    def test_a_matrix_without_labels_is_rejected(self):
        with pytest.raises(ValueError, match="labels are required unless features is a FeatureStore"):
            mutual_information_diagnostic(np.ones((4, 1)))

    def test_a_store_with_labels_is_rejected(self):
        store = small_store()
        _, y = store.stacked()
        with pytest.raises(ValueError, match="labels come from the store"):
            mutual_information_diagnostic(store, labels=y)
