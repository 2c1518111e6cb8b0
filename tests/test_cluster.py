"""Tests for k-means, Bayesian k-means, and mean-shift propagation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tafssl import classify, cluster, linalg
from tafssl.classify import Prototypes, build_prototypes, nn_classify
from tafssl.cluster import (
    KMEANS_MAX_ITER,
    _farthest_point_init,
    _nearest_confidence,
    bkm,
    bkm_from_centroids,
    bkm_predict,
    kmeans,
    msp,
)
from tafssl.linalg import NumericalWarning, as_matrix, pairwise_sqdist, softmax_rows


def soft_nn_oracle(support, labels, queries, class_ids):
    """Closed-form single-cluster posterior: exp(-d^2) mass per class."""
    neg = -((queries[:, None, :] - support[None, :, :]) ** 2).sum(axis=2)
    w = np.exp(neg - neg.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    return np.stack([w[:, labels == c].sum(axis=1) for c in class_ids], axis=1)


def two_blobs(seed, n=30, separation=20.0):
    rng = np.random.default_rng(seed)
    a = rng.normal([0.0, 0.0], 1.0, size=(n, 2))
    b = rng.normal([separation, 0.0], 1.0, size=(n, 2))
    return np.vstack([a, b]), np.array([0.0, 0.0]), np.array([separation, 0.0])


class TestKmeans:
    def test_k1_is_mean(self):
        rng = np.random.default_rng(0)
        pool = rng.normal(size=(17, 3))
        c = kmeans(pool, 1, seed=0)
        np.testing.assert_allclose(c.centroids, pool.mean(axis=0, keepdims=True), atol=1e-12)

    def test_two_blobs(self):
        pool, mean_a, mean_b = two_blobs(1)
        c = kmeans(pool, 2, seed=0)
        found = c.centroids[np.argsort(c.centroids[:, 0])]
        assert np.linalg.norm(found[0] - mean_a) < 2.0  # 0.1 * separation
        assert np.linalg.norm(found[1] - mean_b) < 2.0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pool = rng.normal(size=(25, 3))
        a = kmeans(pool, 4, seed=9)
        b = kmeans(pool, 4, seed=9)
        assert np.array_equal(a.centroids, b.centroids)

    def test_small_pool_reduces_k(self):
        pool = np.eye(3)
        c = kmeans(pool, 5, seed=0)
        assert c.k == 3
        assert c.meta["k_reduced"] == {"requested": 5, "used": 3}

    def test_clusters_emptied_together_keep_distinct_centroids(self):
        # Two clusters of this pool empty in the same Lloyd round; each keeps
        # its own centroid, so none lands on another.
        pool = 1e8 + np.random.default_rng(0).normal(size=(20, 4)) * 1e-4
        got = kmeans(pool, 3, seed=0)
        assert got.k == 3
        assert np.unique(got.centroids, axis=0).shape[0] == 3
        # The near-duplicate pools of the loop-reference test, at their reduced k.
        for seed in range(3):
            pool = 1.0 + np.random.default_rng(seed).normal(size=(20, 4)) * 1e-9
            got = kmeans(pool, 5, seed=seed)
            assert np.unique(got.centroids, axis=0).shape[0] == got.k

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="^empty pool$"):
            kmeans(np.empty((0, 3)), 2)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected(self, k):
        pool = np.random.default_rng(4).normal(size=(20, 4))
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            kmeans(pool, k)
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            bkm(pool[:4], [0, 0, 1, 1], pool[4:8], pool, k=k)


class TestBkm:
    def test_k1_equals_soft_nn(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n_classes = int(rng.integers(2, 5))
            support = rng.normal(size=(n_classes * int(rng.integers(1, 4)), 4))
            labels = np.sort(rng.integers(0, n_classes, size=support.shape[0]))
            labels[: n_classes] = np.arange(n_classes)  # every class occupied
            queries = rng.normal(size=(6, 4))
            pool = np.vstack([support, queries])
            post = bkm(support, labels, queries, pool, k=1, seed=seed)
            oracle = soft_nn_oracle(support, labels, queries, np.unique(labels))
            np.testing.assert_allclose(post, oracle, atol=1e-12)

    def test_separated_classes_one_hot(self):
        support = np.vstack([np.zeros((2, 3)), np.full((2, 3), 50.0)])
        labels = np.array([0, 0, 1, 1])
        queries = np.array([[0.0, 0.0, 0.0], [50.0, 50.0, 50.0]])
        pool = np.vstack([support, queries])
        # Memberships in the opposite (very far) cluster underflow to zero,
        # which the degenerate-denominator fallback reports.
        with pytest.warns(NumericalWarning):
            post = bkm(support, labels, queries, pool, k=2, seed=0)
        assert post[0, 0] > 0.99
        assert post[1, 1] > 0.99

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        support = rng.normal(size=(10, 5))
        labels = np.repeat(np.arange(5), 2)
        queries = rng.normal(size=(20, 5))
        pool = np.vstack([support, queries])
        post = bkm(support, labels, queries, pool, k=5, seed=0)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)
        assert np.isfinite(post).all()

    def test_row_order_irrelevant_given_centroids(self):
        # Once the centroids are fixed, the pool enters the posterior only
        # through them; the remaining order sensitivity is support summation
        # order, which must stay within floating-point noise.
        rng = np.random.default_rng(5)
        support = rng.normal(size=(6, 3))
        labels = np.repeat(np.arange(3), 2)
        queries = rng.normal(size=(8, 3))
        pool = np.vstack([support, queries])
        centroids = kmeans(pool, 3, seed=2).centroids
        base = bkm_from_centroids(support, labels, queries, centroids)
        perm = rng.permutation(len(support))
        permuted = bkm_from_centroids(support[perm], labels[perm], queries, centroids)
        np.testing.assert_allclose(permuted, base, atol=1e-9)

    @pytest.mark.parametrize("n_labels", [5, 7])
    @pytest.mark.parametrize("head", [bkm, bkm_predict])
    def test_labels_of_the_wrong_length_fail(self, head, n_labels):
        rng = np.random.default_rng(6)
        support, queries = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
        with pytest.raises(ValueError, match="labels length must match support rows"):
            head(support, np.arange(n_labels) % 3, queries, np.vstack([support, queries]), seed=0)

    def test_degenerate_denominator_falls_back_uniform(self):
        # One cluster sits so far away that every support's membership in it
        # underflows to zero; conditionals for that cluster become uniform.
        support = np.array([[0.0], [1.0]])
        labels = np.array([0, 1])
        queries = np.array([[0.5]])
        centroids = np.array([[0.5], [1000.0]])
        with pytest.warns(NumericalWarning, match="degenerate"):
            post = bkm_from_centroids(support, labels, queries, centroids)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)


def test_no_centroids_is_named():
    S = np.random.default_rng(8).normal(size=(4, 3))
    with pytest.raises(ValueError, match="^no centroid rows$"):
        bkm_from_centroids(S, [0, 0, 1, 1], S, np.zeros((0, 3)))


@pytest.mark.parametrize(
    "head,third", [(msp, "pool"), (bkm, "pool"), (bkm_from_centroids, "centroids")], ids=["msp", "bkm", "bkm_from_centroids"]
)
def test_sets_of_different_widths_are_named(head, third):
    rng = np.random.default_rng(8)
    S, y, Q = rng.normal(size=(5, 4)), np.arange(5), rng.normal(size=(10, 4))
    with pytest.raises(ValueError, match=rf"^dimension mismatch: 4 columns in support, 3 in {third}$"):
        head(S, y, Q, rng.normal(size=(5, 3)))
    with pytest.raises(ValueError, match=r"^dimension mismatch: 4 columns in support, 3 in queries$"):
        head(S, y, Q[:, :3], rng.normal(size=(5, 4)))


@pytest.mark.parametrize("head", [msp, bkm, bkm_from_centroids], ids=["msp", "bkm", "bkm_from_centroids"])
@pytest.mark.parametrize(
    "labels,message",
    [
        ((np.arange(6) % 3)[:, None], r"^labels must be 1-dimensional, got shape \(6, 1\)$"),
        (np.array([0.0, 1.0, 2.0, np.nan, 1.0, 2.0]), "^labels must not contain NaN$"),
    ],
    ids=["2-d", "nan"],
)
def test_bad_labels_are_named(head, labels, message):
    rng = np.random.default_rng(9)
    S, Q = rng.normal(size=(6, 4)), rng.normal(size=(10, 4))
    with pytest.raises(ValueError, match=message):
        head(S, labels, Q, np.vstack([S, Q]))


@pytest.mark.parametrize(
    "head",
    [
        lambda S, y, Q: build_prototypes(S, y),
        lambda S, y, Q: classify.nn(S, y, Q, Q, 0),
        lambda S, y, Q: classify.sub(S, y, Q, Q, 0),
        lambda S, y, Q: classify.sub_star(S, y, Q, Q, 0),
        lambda S, y, Q: msp(S, y, Q, Q),
        lambda S, y, Q: bkm(S, y, Q, Q),
        lambda S, y, Q: bkm_predict(S, y, Q, Q, 0),
        lambda S, y, Q: bkm_from_centroids(S, y, Q, Q[:2]),
    ],
    ids=["build_prototypes", "nn", "sub", "sub_star", "msp", "bkm", "bkm_predict", "bkm_from_centroids"],
)
def test_an_empty_support_is_named(head):
    # Centered, these queries are zero rows: sub and sub_star must fail on
    # the support before they normalize (and warn about) the queries.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^no support rows$"):
            head(np.zeros((0, 3)), [], np.ones((6, 3)))


@pytest.mark.parametrize(
    "head",
    [classify.nn, classify.sub, classify.sub_star, bkm_predict, cluster.msp_predict],
    ids=["nn", "sub", "sub_star", "bkm_predict", "msp_predict"],
)
def test_an_empty_query_set_gets_no_predictions(head):
    S = np.random.default_rng(12).normal(size=(6, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = head(S, [0, 0, 1, 1, 2, 2], np.zeros((0, 3)), S, 0)
    assert got.shape == (0,)


def test_bkm_predict_checks_the_support_before_its_labels():
    Q = np.random.default_rng(11).normal(size=(6, 3))
    with pytest.raises(ValueError, match=r"^support must be 2-dimensional, got shape \(\)$"):
        bkm_predict(5.0, [0], Q, Q, 0)


class TestMsp:
    def test_negative_iterations_rejected(self):
        pool = np.random.default_rng(4).normal(size=(20, 4))
        with pytest.raises(ValueError, match="iterations must be >= 0, got -3"):
            msp(pool[:4], [0, 0, 1, 1], pool[4:8], pool, iterations=-3)

    def test_zero_iterations_is_prototype_baseline(self):
        rng = np.random.default_rng(6)
        support = rng.normal(size=(5, 4))
        labels = np.arange(5)
        queries = rng.normal(size=(12, 4))
        pool = np.vstack([support, queries])
        res = msp(support, labels, queries, pool, iterations=0)
        preds, post = nn_classify(queries, build_prototypes(support, labels))
        assert np.array_equal(res.predictions, preds)
        assert np.array_equal(res.posterior, post)
        assert np.array_equal(res.prototypes, support)
        assert res.k_history == []

    def test_supports_only_one_shot_fixed_point(self):
        support = np.array([[0.0, 0.0], [10.0, 10.0]])
        labels = np.array([0, 1])
        res = msp(support, labels, support, support, threshold=0.0, iterations=4)
        np.testing.assert_allclose(res.prototypes, support, atol=1e-12)
        assert res.k_history == [1, 1, 1, 1]

    def test_prototypes_stay_in_pool_bounding_box(self):
        rng = np.random.default_rng(7)
        support = rng.normal(size=(5, 3))
        labels = np.arange(5)
        queries = rng.normal(size=(40, 3))
        pool = np.vstack([support, queries])
        res = msp(support, labels, queries, pool, iterations=4)
        assert np.all(res.prototypes >= pool.min(axis=0) - 1e-12)
        assert np.all(res.prototypes <= pool.max(axis=0) + 1e-12)
        assert len(res.k_history) == 4
        assert all(0 <= k <= pool.shape[0] for k in res.k_history)

    def test_impossible_round_keeps_prototypes(self):
        # The largest threshold below 1 is out of reach for this pool (every
        # confidence is below it), so K = 0 every round.
        support = np.array([[0.0], [5.0]])
        labels = np.array([0, 1])
        queries = np.array([[1.0], [4.0]])
        pool = np.vstack([support, queries])
        res = msp(support, labels, queries, pool, threshold=np.nextafter(1.0, 0.0), iterations=3)
        np.testing.assert_allclose(res.prototypes, support)
        assert res.k_history == [0, 0, 0]

    @pytest.mark.parametrize("threshold", [1.0, 1.5, np.inf, np.nan, -0.1])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # At 1.5 or NaN no confidence passes: every round would have K = 0
        # and msp would silently be nn.
        pool = np.random.default_rng(4).normal(size=(20, 4))
        with pytest.raises(ValueError, match=r"^threshold must be a finite real number in \[0, 1\), got "):
            msp(pool[:4], [0, 0, 1, 1], pool[4:8], pool, threshold=threshold)

    def test_refinement_beats_one_shot_on_blobs(self):
        wins = 0
        trials = 200
        for trial in range(trials):
            rng = np.random.default_rng((99, trial))
            means = rng.normal(0, 6.0, size=(5, 8))
            support = np.vstack([rng.normal(means[i], 1.0, size=(1, 8)) for i in range(5)])
            queries = np.vstack([rng.normal(means[i], 1.0, size=(20, 8)) for i in range(5)])
            labels = np.arange(5)
            pool = np.vstack([support, queries])
            res = msp(support, labels, queries, pool, threshold=0.3, iterations=4)
            before = np.linalg.norm(support - means, axis=1).sum()
            after = np.linalg.norm(res.prototypes - means, axis=1).sum()
            wins += after < before
        assert wins >= 0.95 * trials

    def test_posterior_hygiene(self):
        rng = np.random.default_rng(8)
        support = rng.normal(size=(10, 4)) * 100
        labels = np.repeat(np.arange(5), 2)
        queries = rng.normal(size=(30, 4)) * 100
        pool = np.vstack([support, queries])
        res = msp(support, labels, queries, pool)
        np.testing.assert_allclose(res.posterior.sum(axis=1), 1.0, atol=1e-9)
        assert np.isfinite(res.posterior).all()


# The rules of k-means, its seeding and the MSP round in their plain loop
# form, with the distance helper they call: a boolean mask per cluster and
# per class where the library sorts once, and the pool x classes posterior
# that msp no longer builds.  Each is the one oracle its rule's code must
# match bit for bit.
def _ref_pairwise_sqdist(A, B):
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    sq = (A * A).sum(axis=1)[:, None] - 2.0 * (A @ B.T) + (B * B).sum(axis=1)[None, :]
    return np.maximum(sq, 0.0)


def _ref_farthest_point_init(X, k, rng):
    chosen = [int(rng.integers(X.shape[0]))]
    min_sq = _ref_pairwise_sqdist(X, X[chosen[-1]][None, :])[:, 0]
    while len(chosen) < k:
        far = int(np.argmax(min_sq))
        if any(np.array_equal(X[c], X[far]) for c in chosen):
            break  # only distinct rows are seeded
        chosen.append(far)
        min_sq = np.minimum(min_sq, _ref_pairwise_sqdist(X, X[far][None, :])[:, 0])
    return X[chosen].copy()


def _ref_kmeans(pool, k, seed=0):
    pool = as_matrix(pool, "pool")
    centroids = _ref_farthest_point_init(pool, k, np.random.default_rng(seed))
    meta = {}
    if centroids.shape[0] < k:
        meta["k_reduced"] = {"requested": k, "used": centroids.shape[0]}
        k = centroids.shape[0]

    assign = np.full(pool.shape[0], -1)
    for _ in range(KMEANS_MAX_ITER):
        new_assign = np.argmin(_ref_pairwise_sqdist(pool, centroids), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = assign == j
            if members.any():
                centroids[j] = pool[members].mean(axis=0)
    return k, centroids, meta


def _ref_nearest_confidence(sq):
    posterior = softmax_rows(-sq)
    predicted = np.argmin(sq, axis=1)
    return predicted, posterior[np.arange(sq.shape[0]), predicted]


def _ref_msp(support, support_labels, queries, pool, threshold=0.3, iterations=4):
    support = as_matrix(support, "support")
    queries = as_matrix(queries, "queries")
    pool = as_matrix(pool, "pool")
    protos = build_prototypes(support, support_labels)
    vectors = protos.vectors.copy()
    n_classes = protos.n

    k_history = []
    for _ in range(iterations):
        predicted, confidence = _ref_nearest_confidence(_ref_pairwise_sqdist(pool, vectors))
        counts = np.array(
            [int(((predicted == i) & (confidence > threshold)).sum()) for i in range(n_classes)]
        )
        k = int(counts.min())
        k_history.append(k)
        if k == 0:
            continue
        for i in range(n_classes):
            members = np.flatnonzero(predicted == i)
            order = members[np.lexsort((members, -confidence[members]))]
            vectors[i] = pool[order[:k]].mean(axis=0)

    final = Prototypes(vectors=vectors, class_ids=protos.class_ids)
    predictions, posterior = nn_classify(queries, final)
    return vectors, protos.class_ids, posterior, predictions, k_history


def _episode_sets(seed, n_pool, m, n_way=5, spread=1.0):
    """A 1-shot episode whose pool holds the supports plus class-drawn rows."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, spread, size=(n_way, m))
    support = means + rng.normal(size=(n_way, m))
    labels = np.arange(n_way) * 3 + 1  # class ids that are not 0..n-1
    queries = means[rng.integers(n_way, size=40)] + rng.normal(size=(40, m))
    rest = means[rng.integers(n_way, size=n_pool - n_way)] + rng.normal(size=(n_pool - n_way, m))
    return support, labels, queries, np.vstack([support, rest])


def _mirrored_pairs(seed):
    """Supports with last coordinate 0, and a pool of row pairs that differ
    only in that coordinate's sign, each pair also present twice: every
    pool row ties exactly in confidence with its mirror, and only the pool
    index decides which of the two a top-K cut keeps."""
    rng = np.random.default_rng(seed)
    support = np.hstack([rng.normal(0.0, 2.0, size=(3, 3)), np.zeros((3, 1))])
    base = support[rng.integers(3, size=15)] + np.hstack([rng.normal(size=(15, 3)), rng.uniform(0.5, 1.5, size=(15, 1))])
    mirror = base * np.array([1.0, 1.0, 1.0, -1.0])
    pool = np.vstack([support, np.repeat(np.stack([base, mirror], axis=1).reshape(30, 4), 2, axis=0)])
    return support, np.arange(3), base[:6], pool


ORACLE_SHAPES = [(805, 64), (805, 4), (80, 10), (80, 1024)]


class TestMatchesLoopReference:
    """kmeans, its seeding and msp are bit-identical to the loops above."""

    def assert_kmeans_matches(self, pool, k, seed):
        got = kmeans(pool, k, seed=seed)
        ref_k, centroids, meta = _ref_kmeans(pool, k, seed=seed)
        assert got.k == ref_k
        assert np.array_equal(got.centroids, centroids)
        assert got.meta == meta
        return got

    def assert_msp_matches(self, support, labels, queries, pool, **kwargs):
        got = msp(support, labels, queries, pool, **kwargs)
        vectors, class_ids, posterior, predictions, k_history = _ref_msp(support, labels, queries, pool, **kwargs)
        assert np.array_equal(got.prototypes, vectors)
        assert np.array_equal(got.class_ids, class_ids)
        assert np.array_equal(got.posterior, posterior)
        assert np.array_equal(got.predictions, predictions)
        assert got.k_history == k_history
        return got

    @pytest.mark.parametrize("n, m", ORACLE_SHAPES)
    @pytest.mark.parametrize("k", [1, 5, 8, 12])
    def test_kmeans(self, n, m, k):
        for seed, *salt in [(0,), (1,), (2,), (0, 1), (1, 1)]:
            pool = _episode_sets((n, m, seed, *salt), n, m, spread=2.0)[3]
            self.assert_kmeans_matches(pool, k, seed=(seed, 2))

    @pytest.mark.parametrize("n, m", ORACLE_SHAPES)
    def test_farthest_point_init(self, n, m):
        pool = _episode_sets((n, m), n, m)[3]
        got = _farthest_point_init(pool, 7, np.random.default_rng(4), (pool * pool).sum(axis=1))
        assert np.array_equal(got, _ref_farthest_point_init(pool, 7, np.random.default_rng(4)))

    @pytest.mark.parametrize("n, m", ORACLE_SHAPES)
    @pytest.mark.parametrize("threshold", [0.3, 0.9])
    def test_msp(self, n, m, threshold):
        for seed in range(3):
            sets = _episode_sets((n, m, seed), n, m, spread=0.3)
            self.assert_msp_matches(*sets, threshold=threshold)

    def test_kmeans_on_fewer_rows_than_k(self):
        pool = _episode_sets(5, 5, 3)[3][:3]
        self.assert_kmeans_matches(pool, 5, seed=1)
        assert kmeans(pool, 5, seed=1).meta["k_reduced"] == {"requested": 5, "used": 3}

    @pytest.mark.parametrize("seed", range(4))
    def test_kmeans_seeds_distinct_rows_only(self, seed):
        # Fewer distinct rows than k: seeding stops at the distinct rows and
        # k drops to their count.
        rng = np.random.default_rng(seed)
        for distinct in (2, 3):
            pool = rng.normal(size=(distinct, 6))[rng.integers(distinct, size=30)]
            got = self.assert_kmeans_matches(pool, 5, seed=seed)
            assert got.meta["k_reduced"] == {"requested": 5, "used": distinct}
            assert np.unique(got.centroids, axis=0).shape[0] == distinct

    @pytest.mark.parametrize("seed", range(3))
    def test_kmeans_keeps_an_empty_clusters_centroid(self, seed):
        # Near-duplicate rows: their expanded distances cancel to 0, so
        # seeding stops short of k = 5, and Lloyd rounds at the reduced k
        # still leave clusters that no row is nearest to.  Such a cluster
        # keeps its centroid for the round.
        pool = 1.0 + np.random.default_rng(seed).normal(size=(20, 4)) * 1e-9
        assert self.assert_kmeans_matches(pool, 5, seed=seed).k < 5

    def test_msp_breaks_confidence_ties_by_pool_index(self):
        differs = []
        for seed in range(6):
            support, labels, queries, pool = _mirrored_pairs(seed)
            got = self.assert_msp_matches(support, labels, queries, pool, iterations=1)
            # Swapping the rows of each mirrored pair moves every tie.
            swapped = np.vstack([pool[:3], pool[3:].reshape(15, 2, 2, 4)[:, ::-1].reshape(60, 4)])
            moved = self.assert_msp_matches(support, labels, queries, swapped, iterations=1)
            differs.append(not np.array_equal(got.prototypes, moved.prototypes))
        # Where a top-K cut splits a tied group, the pool index decides it
        # and the prototypes differ; the seeds include such cuts.
        assert any(differs)

    def test_msp_keeps_prototypes_through_zero_rounds(self):
        # The largest threshold below 1 is out of reach here; 0.9 is not, but
        # one class of this pool has no row above it.
        sets = _episode_sets(7, 80, 10, spread=0.3)
        assert self.assert_msp_matches(*sets, threshold=np.nextafter(1.0, 0.0)).k_history == [0, 0, 0, 0]
        sets = _episode_sets(7, 80, 4, spread=0.5)
        assert self.assert_msp_matches(*sets, threshold=0.9).k_history == [0, 0, 0, 0]


# bkm_from_centroids in its plainest form: the oracle it must match bit for
# bit.  The library builds ``numer`` from the same per-class boolean masks
# and differs only in sharing the queries' squared norms; this copy stays so
# that a faster form cannot drift from it unseen.
def _ref_bkm_from_centroids(support, support_labels, queries, centroids):
    support = as_matrix(support, "support")
    queries = as_matrix(queries, "queries")
    centroids = as_matrix(centroids, "centroids")
    labels = np.asarray(support_labels)
    class_ids = np.unique(labels)

    member_q = softmax_rows(-_ref_pairwise_sqdist(queries, centroids))
    member_s = softmax_rows(-_ref_pairwise_sqdist(support, centroids))

    neg_sq = -_ref_pairwise_sqdist(queries, support)
    affinity = np.exp(neg_sq - neg_sq.max(axis=1, keepdims=True))

    denom = affinity @ member_s
    numer = np.stack([affinity[:, labels == cid] @ member_s[labels == cid] for cid in class_ids], axis=1)

    degenerate = denom <= 0.0
    if degenerate.any():
        numer[np.broadcast_to(degenerate[:, None, :], numer.shape)] = 1.0
        denom = np.where(degenerate, float(len(class_ids)), denom)

    conditional = numer / denom[:, None, :]
    posterior = np.einsum("qik,qk->qi", conditional, member_q)
    return posterior / posterior.sum(axis=1, keepdims=True)


def _shuffled_shots(seed, m, shots, n_way=5):
    """Supports of ``shots`` rows per class (a list gives per-class counts),
    rows in random order, class ids not 0..n-1; queries; and the k-means
    centroids of their pool."""
    rng = np.random.default_rng(seed)
    counts = [shots] * n_way if isinstance(shots, int) else shots
    scale = 3.0 / np.sqrt(m)  # squared distances of order 10 at every m: no memberships underflow
    means = rng.normal(0.0, 2.0 * scale, size=(n_way, m))
    index = rng.permutation(np.repeat(np.arange(n_way), counts))
    support = means[index] + rng.normal(0.0, scale, size=(index.size, m))
    queries = means[rng.integers(n_way, size=75)] + rng.normal(0.0, scale, size=(75, m))
    centroids = kmeans(np.vstack([support, queries]), 5, seed=seed).centroids
    return support, index * 4 + 2, queries, centroids


class TestBkmMatchesLoopReference:
    """bkm_from_centroids is bit-identical to the masked loop above, and bkm
    never computes the soft assignment it does not use."""

    @pytest.mark.parametrize("m", [4, 10, 64, 1024])
    @pytest.mark.parametrize("shots", [1, 3, 5, [1, 4, 2, 1, 3]])
    def test_posteriors(self, m, shots):
        for seed in range(3):
            sets = _shuffled_shots((m, seed), m, shots)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the degenerate-denominator branch has its own test
                got = bkm_from_centroids(*sets)
            assert np.array_equal(got, _ref_bkm_from_centroids(*sets))

    def test_degenerate_denominators(self):
        support, labels, queries = np.array([[0.0], [1.0], [0.2]]), np.array([3, 1, 3]), np.array([[0.5], [0.1]])
        centroids = np.array([[0.5], [1000.0]])
        with pytest.warns(NumericalWarning, match="degenerate"):
            got = bkm_from_centroids(support, labels, queries, centroids)
        assert np.array_equal(got, _ref_bkm_from_centroids(support, labels, queries, centroids))

    def test_bkm_skips_the_soft_assignment(self, monkeypatch):
        made = []

        def spy(*args, **kwargs):
            made.append(kmeans(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(cluster, "kmeans", spy)
        support, labels, queries, _ = _shuffled_shots(9, 64, 1)
        pool = np.vstack([support, queries])
        post = bkm(support, labels, queries, pool, k=5, seed=(9, 2))
        assert np.array_equal(post, bkm_from_centroids(support, labels, queries, made[0].centroids))


class TestMspRoundMatchesOracle:
    """The MSP round's decisions are bit-identical to the oracle
    ``_ref_nearest_confidence``, the round as it stood before msp stopped
    building the pool x classes posterior, and msp builds no such posterior."""

    def assert_round_matches(self, sq):
        predicted, confidence = _nearest_confidence(sq)
        ref_predicted, ref_confidence = _ref_nearest_confidence(sq)
        assert np.array_equal(predicted, ref_predicted)
        assert np.array_equal(confidence, ref_confidence)
        return predicted, confidence

    @pytest.mark.parametrize("n, m", ORACLE_SHAPES)
    @pytest.mark.parametrize("n_classes", [5, 12])
    def test_msp_round(self, n, m, n_classes):
        for spread in (0.3, 3.0, 30.0):  # at 30 most confidences round to exactly 1.0
            _, _, _, pool = _episode_sets((n, m, n_classes), n, m, n_way=n_classes, spread=spread)
            self.assert_round_matches(pairwise_sqdist(pool, pool[:n_classes]))

    def test_msp_round_edge_rows(self):
        sq = np.array(
            [
                [0.0, 4.0, 9.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0],  # at distance 0
                [1.0, 900.0, 901.0, 902.0, 903.0, 904.0, 905.0, 906.0, 907.0, 908.0],  # confidence 1.0
                [2.0, 2.0, 3.0, 3.0, 2.0, 9.0, 9.0, 9.0, 9.0, 2.0],  # a tie: lowest class
                [5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0],  # uniform
                [0.0, 0.0, 1e300, 1e-300, 0.0, 7.0, 0.0, 0.0, 3.0, 0.0],
            ]
        )
        for width in (2, 5, 8, 9, 10):
            predicted, confidence = self.assert_round_matches(sq[:, :width])
        assert confidence[1] == 1.0 and predicted[2] == 0

    def test_msp_builds_no_pool_posterior(self, monkeypatch):
        shapes = []

        def spy(logits):
            shapes.append(np.shape(logits))
            return softmax_rows(logits)

        for module in (linalg, classify, cluster):
            monkeypatch.setattr(module, "softmax_rows", spy)
        support, labels, queries, pool = _episode_sets(3, 805, 64, spread=0.3)
        got = msp(support, labels, queries, pool)
        assert any(got.k_history)  # prototypes moved: the rounds ran in full
        assert shapes == [(queries.shape[0], 5)]  # the final query posterior only


class TestPosteriorsAtExtremeScales:
    """nn_classify, bkm and msp posteriors stay finite and sum to one for
    features scaled by 10^s, s in [-100, 100]."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.floats(-100.0, 100.0))
    def test_finite_and_normalized(self, seed, s):
        support, labels, queries, pool = _episode_sets(seed, 40, 8, spread=3.0)
        scale = 10.0**s
        support, queries, pool = scale * support, scale * queries, scale * pool
        with warnings.catch_warnings():
            # bkm's documented fallback for clusters no support reaches
            warnings.filterwarnings("ignore", ".*degenerate cluster denominator", NumericalWarning)
            posteriors = {
                "nn": nn_classify(queries, build_prototypes(support, labels))[1],
                "bkm": bkm(support, labels, queries, pool, seed=seed),
                "msp": msp(support, labels, queries, pool).posterior,
            }
        for name, posterior in posteriors.items():
            assert np.isfinite(posterior).all(), name
            np.testing.assert_allclose(posterior.sum(axis=1), 1.0, rtol=0, atol=1e-12, err_msg=name)
