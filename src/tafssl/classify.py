"""Prototype construction and distance-based classification.

The basic few-shot classifier averages the support samples of each class
into a prototype and assigns every query to the nearest prototype in
squared Euclidean distance.  Soft class posteriors come from a softmax over
negative squared distances at temperature 1.

Three inference heads live here: ``nn``, and the transductive baselines
``sub`` and ``sub_star``, which center and L2-normalize the episode before
deciding as ``nn``.  Every head has the signature ``head(support,
support_labels, queries, pool, seed) -> predictions``; these three read
neither the pool nor the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tafssl.linalg import as_matrix, check_widths, pairwise_sqdist, softmax_rows, warn_numerical

__all__ = [
    "Prototypes",
    "build_prototypes",
    "l2_normalize_rows",
    "nn",
    "nn_classify",
    "sub",
    "sub_star",
]


@dataclass(frozen=True)
class Prototypes:
    """One prototype per task class, ordered by ascending class id."""

    vectors: np.ndarray
    class_ids: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def build_prototypes(support, labels) -> Prototypes:
    """Average the support rows of each class into a prototype; the classes
    are the sorted distinct labels."""
    support = as_matrix(support, "support")
    labels = np.asarray(labels)
    if labels.shape[0] != support.shape[0]:
        raise ValueError("labels length must match support rows")
    class_ids = np.unique(labels)
    vectors = np.empty((len(class_ids), support.shape[1]))
    for i, c in enumerate(class_ids):
        vectors[i] = support[labels == c].mean(axis=0)
    return Prototypes(vectors=vectors, class_ids=class_ids)


def nn_classify(queries, prototypes: Prototypes) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-prototype decisions plus softmax posteriors.

    Returns ``(predictions, posterior)`` where predictions are class ids
    (ties broken toward the lowest class index) and posterior rows are
    softmax(-d^2), computed with max-subtraction, so the argmax of each
    posterior row equals the nearest-prototype decision.
    """
    queries = as_matrix(queries, "queries")
    check_widths(queries=queries, prototypes=prototypes.vectors)
    sq = pairwise_sqdist(queries, prototypes.vectors)
    return prototypes.class_ids[np.argmin(sq, axis=1)], softmax_rows(-sq)


def l2_normalize_rows(X: np.ndarray) -> np.ndarray:
    """Scale every row to unit L2 norm; zero rows pass through with a warning."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    zero = norms[:, 0] == 0.0
    if zero.any():
        warn_numerical(f"{int(zero.sum())} zero-norm row(s) left unnormalized")
    return np.divide(X, norms, out=X.copy(), where=norms > 0)


def nn(support, support_labels, queries, pool, seed) -> np.ndarray:
    """The ``nn`` head: each query's nearest class-mean prototype."""
    return nn_classify(queries, build_prototypes(support, support_labels))[0]


def sub(support, support_labels, queries, pool, seed) -> np.ndarray:
    """The ``sub`` head: :func:`_normalized_nn` after centering support and
    queries on their joint mean."""
    mu = np.vstack([support, queries]).mean(axis=0)
    return _normalized_nn(support - mu, support_labels, queries - mu)


def sub_star(support, support_labels, queries, pool, seed) -> np.ndarray:
    """The ``sub-star`` head: :func:`_normalized_nn` after centering support
    and queries each on its own mean."""
    return _normalized_nn(support - np.mean(support, axis=0), support_labels, queries - np.mean(queries, axis=0))


def _normalized_nn(S, y_s, Q) -> np.ndarray:
    """``nn`` after L2-normalizing the support rows, then the queries; the
    prototypes are means of unit rows.  Zero rows stay unnormalized, with a
    NumericalWarning."""
    S = l2_normalize_rows(S)
    Q = l2_normalize_rows(Q)
    return nn_classify(Q, build_prototypes(S, y_s))[0]
