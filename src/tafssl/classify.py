"""Prototype construction and distance-based classification.

The basic few-shot classifier averages the support samples of each class
into a prototype and assigns every query to the nearest prototype in
squared Euclidean distance.  Soft class posteriors come from a softmax over
negative squared distances at temperature 1.  The transductive baselines
("sub" and "sub-star") additionally center and L2-normalize the episode
before classifying.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from tafssl.linalg import NumericalWarning, as_matrix, pairwise_sqdist, softmax_rows

__all__ = [
    "Prototypes",
    "build_prototypes",
    "center_and_normalize",
    "l2_normalize_rows",
    "nn_classify",
]


@dataclass(frozen=True)
class Prototypes:
    """One prototype per task class, ordered by ascending class id."""

    vectors: np.ndarray
    class_ids: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def build_prototypes(support, labels, class_ids=None) -> Prototypes:
    """Average the support rows of each class into a prototype.

    ``class_ids`` may declare the expected classes explicitly; a declared
    class with no support rows, or a label not declared, is an error.
    Without it the classes are the sorted distinct labels.
    """
    support = as_matrix(support, "support")
    labels = np.asarray(labels)
    if labels.shape[0] != support.shape[0]:
        raise ValueError("labels length must match support rows")
    if class_ids is None:
        class_ids = np.unique(labels)
    else:
        class_ids = np.asarray(sorted(class_ids))
    # Rows grouped by class, in row order: each run averages as its boolean-mask selection.
    order = np.argsort(labels, kind="stable")
    grouped, sorted_labels = support[order], labels[order]
    starts = np.searchsorted(sorted_labels, class_ids, side="left")
    ends = np.searchsorted(sorted_labels, class_ids, side="right")
    vectors = np.empty((len(class_ids), support.shape[1]))
    for i, (cid, start, end) in enumerate(zip(class_ids, starts, ends)):
        if start == end:
            raise ValueError(f"class {cid} has no support samples")
        vectors[i] = grouped[start:end].mean(axis=0)
    if (ends - starts).sum() < labels.shape[0]:
        raise ValueError(f"support labels {np.setdiff1d(labels, class_ids).tolist()} are not among the declared class_ids")
    return Prototypes(vectors=vectors, class_ids=class_ids)


def nn_classify(queries, prototypes: Prototypes, temperature: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-prototype decisions plus softmax posteriors.

    Returns ``(predictions, posterior)`` where predictions are class ids
    (ties broken toward the lowest class index) and posterior rows are
    softmax(-temperature * d^2), computed with max-subtraction.  The argmax
    of each posterior row equals the nearest-prototype decision.
    """
    queries = as_matrix(queries, "queries")
    if queries.shape[1] != prototypes.vectors.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries have {queries.shape[1]} columns, "
            f"prototypes have {prototypes.vectors.shape[1]}"
        )
    sq = pairwise_sqdist(queries, prototypes.vectors)
    predictions = prototypes.class_ids[np.argmin(sq, axis=1)]
    posterior = softmax_rows(-temperature * sq)
    return predictions, posterior


def l2_normalize_rows(X: np.ndarray) -> np.ndarray:
    """Scale every row to unit L2 norm; zero rows pass through with a warning."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    zero = norms[:, 0] == 0.0
    if zero.any():
        warnings.warn(f"{int(zero.sum())} zero-norm row(s) left unnormalized", NumericalWarning, stacklevel=2)
    return np.divide(X, norms, out=X.copy(), where=norms > 0)


def center_and_normalize(S, Q, mode: str = "joint") -> tuple[np.ndarray, np.ndarray]:
    """Episode centering followed by per-row L2 normalization.

    ``joint`` subtracts the mean of all samples (support and queries
    together) from both sets; ``separate`` subtracts each set's own mean.
    Zero rows survive unnormalized (recorded via NumericalWarning).
    """
    S = as_matrix(S, "support")
    Q = as_matrix(Q, "queries")
    if S.shape[1] != Q.shape[1]:
        raise ValueError("support and queries must share the feature dimension")
    if mode == "joint":
        mu = np.vstack([S, Q]).mean(axis=0)
        return l2_normalize_rows(S - mu), l2_normalize_rows(Q - mu)
    if mode == "separate":
        return l2_normalize_rows(S - S.mean(axis=0)), l2_normalize_rows(Q - Q.mean(axis=0))
    raise ValueError(f"unknown mode {mode!r}, expected 'joint' or 'separate'")
