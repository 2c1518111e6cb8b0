"""Clustering-based inference over a few-shot episode's pooled samples.

Two inference schemes refine the plain nearest-prototype decision using the
episode's unlabeled pool (queries in the transductive setting, the extra
unlabeled set in the semi-supervised one):

* Bayesian k-means (``bkm``): cluster the pool, treat each cluster as a
  mixture over classes, and marginalize the per-cluster class posteriors by
  each query's cluster membership probabilities.
* Mean-shift propagation (``msp``): iteratively re-estimate the class
  prototypes as the means of the most confidently predicted pool samples,
  keeping the per-class count balanced, then classify queries against the
  final prototypes.

Both are deterministic given their seed and inputs; there is no state shared
across episodes.  ``bkm_predict`` and ``msp_predict`` are their inference
heads, with the signature every head has, ``head(support, support_labels,
queries, pool, seed) -> predictions``, and the defaults below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from tafssl.classify import Prototypes, build_prototypes, nn_classify
from tafssl.linalg import as_count, as_labels, as_matrices, as_matrix, as_real, pairwise_sqdist, softmax_rows, warn_numerical

__all__ = ["Clustering", "MspResult", "bkm", "bkm_from_centroids", "bkm_predict", "kmeans", "msp", "msp_predict"]

BKM_DEFAULT_CLUSTERS = 5
MSP_DEFAULT_THRESHOLD = 0.3
MSP_DEFAULT_ITERATIONS = 4

KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class Clustering:
    """Hard k-means centroids of a pool."""

    k: int
    centroids: np.ndarray
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MspResult:
    """Refined prototypes with the per-iteration balanced count history."""

    prototypes: np.ndarray
    class_ids: np.ndarray
    posterior: np.ndarray
    predictions: np.ndarray
    k_history: list[int] = field(default_factory=list)


def _farthest_point_init(X: np.ndarray, k: int, rng: np.random.Generator, x_sq: np.ndarray) -> np.ndarray:
    """k-means++-style greedy seeding: random first centroid, then repeatedly
    the point farthest from the chosen set.  Deterministic given the seed
    (argmax ties resolve to the lowest row index).  Stops short of ``k``
    centroids when the farthest row equals a chosen one, so the centroids
    returned are distinct rows of ``X``.  ``x_sq`` is ``X``'s squared row
    norms."""
    chosen = [int(rng.integers(X.shape[0]))]
    min_sq = np.full(X.shape[0], np.inf)
    while len(chosen) < k:
        # Only a seed that is not the last needs its distances.
        min_sq = np.minimum(min_sq, pairwise_sqdist(X, X[chosen[-1]][None, :], x_sq)[:, 0])
        far = int(np.argmax(min_sq))
        # Compared exactly: the expanded distance of a row to itself need not be 0.
        if (X[chosen] == X[far]).all(axis=1).any():
            break
        chosen.append(far)
    return X[chosen]


def kmeans(pool, k: int, seed: int = 0) -> Clustering:
    """Hard Lloyd iterations to an assignment fixpoint (at most 100 rounds),
    from greedy farthest-point seeding.

    If the pool has fewer than ``k`` distinct rows, seeding stops at distinct
    rows, k is reduced to their count and the reduction recorded as
    ``meta["k_reduced"] = {"requested": k, "used": ...}``.  A cluster that no
    pool row is nearest to keeps its centroid for that round, as an MSP
    round with K = 0 keeps its prototypes.  It is not re-seeded: a re-seed
    put two clusters that emptied in the same round on the same row.  ``k``
    is an integer >= 1; a non-integer raises ValueError.
    """
    pool = as_matrix(pool, "pool")
    if pool.shape[0] < 1:
        raise ValueError("empty pool")
    k = as_count(k, "k", 1)
    pool_sq = (pool * pool).sum(axis=1)
    centroids = _farthest_point_init(pool, k, np.random.default_rng(seed), pool_sq)
    meta: dict = {}
    if centroids.shape[0] < k:
        meta["k_reduced"] = {"requested": k, "used": centroids.shape[0]}
        k = centroids.shape[0]
    assign = np.full(pool.shape[0], -1)
    members = np.empty_like(pool)
    for _ in range(KMEANS_MAX_ITER):
        new_assign = np.argmin(pairwise_sqdist(pool, centroids, pool_sq), axis=1)
        if (new_assign == assign).all():
            break
        assign = new_assign
        # Members of each cluster as one contiguous run, in pool order, so
        # each mean is bit-identical to the mean over a boolean mask.
        np.take(pool, np.argsort(assign, kind="stable"), axis=0, out=members, mode="clip")
        ends = np.cumsum(np.bincount(assign, minlength=k))
        for j in range(k):
            start = ends[j - 1] if j else 0
            if ends[j] > start:
                # ndarray.mean's own two steps, without its Python wrapper.
                np.add.reduce(members[start : ends[j]], axis=0, out=centroids[j])
                centroids[j] /= ends[j] - start
    return Clustering(k=k, centroids=centroids, meta=meta)


def bkm_from_centroids(support, support_labels, queries, centroids) -> np.ndarray:
    """Class posteriors for ``queries`` given fixed cluster centroids.

    For each sample x, cluster membership is softmax(-|x - c_j|^2).  Within
    a cluster, the class posterior of a query weighs every support sample by
    exp(-|q - s|^2) times that support's membership in the cluster; the
    final posterior marginalizes over clusters by the query's own
    memberships.  Rows sum to one.  At least one centroid is required.
    """
    support, queries, centroids = as_matrices(support=support, queries=queries, centroids=centroids)
    if not centroids.shape[0]:
        raise ValueError("no centroid rows")
    class_ids, index = as_labels(support_labels, support.shape[0])

    q_sq = (queries * queries).sum(axis=1)
    member_q = softmax_rows(-pairwise_sqdist(queries, centroids, q_sq))  # queries x k
    member_s = softmax_rows(-pairwise_sqdist(support, centroids))  # supports x k

    # Support affinities exp(-d^2), max-subtracted per query; the common
    # factor cancels in the conditional ratio so this is exact.
    neg_sq = -pairwise_sqdist(queries, support, q_sq)
    affinity = np.exp(neg_sq - neg_sq.max(axis=1, keepdims=True))  # queries x supports

    denom = affinity @ member_s  # queries x k
    numer = np.stack([affinity[:, index == i] @ member_s[index == i] for i in range(len(class_ids))], axis=1)
    # queries x classes x k

    degenerate = denom <= 0.0
    if degenerate.any():
        warn_numerical(f"{int(degenerate.sum())} degenerate cluster denominator(s); using uniform class mix")
        numer[np.broadcast_to(degenerate[:, None, :], numer.shape)] = 1.0
        denom = np.where(degenerate, float(len(class_ids)), denom)

    conditional = numer / denom[:, None, :]
    posterior = np.einsum("qik,qk->qi", conditional, member_q)
    return posterior / posterior.sum(axis=1, keepdims=True)


def bkm(support, support_labels, queries, pool, k: int = BKM_DEFAULT_CLUSTERS, seed: int = 0) -> np.ndarray:
    """Bayesian k-means posteriors: cluster the pool, then marginalize.

    ``pool`` is the episode's full sample set (support + queries, or support
    + unlabeled).  Only the supports and queries are soft-assigned to the
    centroids (:func:`bkm_from_centroids`); the pool's own soft assignment
    is never computed.  Returns a queries x classes posterior matrix whose
    rows sum to one; predictions are the row argmax.
    """
    support, queries, pool = as_matrices(support=support, queries=queries, pool=pool)
    clustering = kmeans(pool, k, seed)
    return bkm_from_centroids(support, support_labels, queries, clustering.centroids)


def bkm_predict(support, support_labels, queries, pool, seed) -> np.ndarray:
    """The ``bkm`` head: each query's most probable class under :func:`bkm`."""
    support = as_matrix(support, "support")
    class_ids = as_labels(support_labels, support.shape[0])[0]
    return class_ids[np.argmax(bkm(support, support_labels, queries, pool, seed=seed), axis=1)]


def _nearest_confidence(sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest class (ties to the lowest) and its softmax(-sq)
    probability, ``softmax_rows(-sq)[rows, nearest]`` bit for bit without
    the posterior matrix: the row max of -sq is -sq[nearest], so the shifted
    logits are sq[nearest] - sq, their exp at the nearest class is exactly 1,
    and the same row sum divides."""
    nearest = np.argmin(sq, axis=1)
    return nearest, 1.0 / np.exp(sq[np.arange(sq.shape[0]), nearest][:, None] - sq).sum(axis=1)


def msp(
    support,
    support_labels,
    queries,
    pool,
    threshold: float = MSP_DEFAULT_THRESHOLD,
    iterations: int = MSP_DEFAULT_ITERATIONS,
) -> MspResult:
    """Mean-shift propagation: balanced confident-mean prototype refinement.

    Starting from the support-mean prototypes, each of the ``iterations``
    rounds soft-classifies every pool sample against the current prototypes,
    counts per class the samples predicted for it with confidence above
    ``threshold``, balances that count to K = min over classes, and replaces
    each prototype with the mean of its K most confident samples (ties by
    pool index).  A round with K = 0 keeps all prototypes unchanged.  The
    final posterior is the nearest-prototype softmax for the queries.
    ``iterations`` is an integer >= 0 and ``threshold`` a finite real number in [0, 1),
    else a ValueError: no confidence exceeds 1, so above it msp would silently be nn.
    """
    iterations = as_count(iterations, "iterations")
    threshold = as_real(threshold, "threshold", "[0, 1)")
    support, queries, pool = as_matrices(support=support, queries=queries, pool=pool)
    protos = build_prototypes(support, support_labels)
    vectors = protos.vectors
    n_classes = protos.n

    pool_sq = (pool * pool).sum(axis=1)
    k_history: list[int] = []
    for _ in range(iterations):
        predicted, confidence = _nearest_confidence(pairwise_sqdist(pool, vectors, pool_sq))
        counts = np.bincount(predicted[confidence > threshold], minlength=n_classes)
        k = int(counts.min())
        k_history.append(k)
        if k == 0:
            continue
        # Grouped by predicted class; within a class by decreasing
        # confidence, pool index breaking ties (lexsort is stable).
        order = np.lexsort((-confidence, predicted))
        starts = np.searchsorted(predicted[order], np.arange(n_classes))
        # Each class's K top rows, gathered classes x K x m: one mean per class, as over its slice.
        vectors = pool[order[starts[:, None] + np.arange(k)]].mean(axis=1)

    final = Prototypes(vectors=vectors, class_ids=protos.class_ids)
    predictions, posterior = nn_classify(queries, final)
    return MspResult(
        prototypes=vectors,
        class_ids=protos.class_ids,
        posterior=posterior,
        predictions=predictions,
        k_history=k_history,
    )


def msp_predict(support, support_labels, queries, pool, seed) -> np.ndarray:
    """The ``msp`` head: :func:`msp`'s query predictions; it draws no randomness."""
    return msp(support, support_labels, queries, pool).predictions
