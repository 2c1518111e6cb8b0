"""Task-adaptive feature subspace fitting: PCA, whitening, and FastICA.

A few-shot episode pools its samples (support + queries in the transductive
setting, support + extra unlabeled data in the semi-supervised one) and fits
a low-dimensional linear map on that pool alone.  The fitted
:class:`SubspaceProjection` then maps every set of the episode into the
subspace where classification happens.

Every projection of a pool derives from one decomposition of it
(:class:`PoolDecomposition`): ``eigh`` of the smaller of the pool's two
squared matrices, the n x n Gram matrix when it has more columns m than
rows n, the m x m scatter matrix otherwise.

Dimension defaults: 4 components for PCA, 10 for ICA.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from tafssl.linalg import NumericalWarning, as_matrix, flip_signs

__all__ = [
    "ICA_DEFAULT_DIM",
    "PCA_DEFAULT_DIM",
    "PoolDecomposition",
    "SubspaceProjection",
    "fit_ica",
    "fit_pca",
    "whiten",
]

PCA_DEFAULT_DIM = 4
ICA_DEFAULT_DIM = 10

# An eigenvalue at or below RANK_EPS times its pool's largest counts as zero.
RANK_EPS = 1e-10

# FastICA settings: symmetric (parallel) decorrelation with g = tanh.
ICA_MAX_ITER = 200
ICA_TOL = 1e-4


@dataclass(frozen=True)
class SubspaceProjection:
    """An affine map ``x -> W @ (x - center)`` into an r-dimensional subspace.

    ``meta`` carries fit diagnostics: eigenvalues for PCA/whitening, the
    convergence flag and iteration count for ICA, and an ``r_reduced`` note
    when the requested dimension had to shrink because the pool was too
    small.
    """

    W: np.ndarray
    center: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)

    @property
    def r(self) -> int:
        return self.W.shape[0]

    @property
    def m(self) -> int:
        return self.W.shape[1]

    def apply(self, X) -> np.ndarray:
        """Project rows of ``X`` (shape rows x m) into the subspace."""
        X = as_matrix(X)
        if X.shape[1] != self.m:
            raise ValueError(f"dimension mismatch: projection expects {self.m} columns, got {X.shape[1]}")
        return (X - self.center) @ self.W.T


def _decompose(Xc: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (eigenvalues desc, leading axes as rows) of the centered pool ``Xc``.

    The eigenvalues are all min(n, m) eigenvalues of the divisor-n
    covariance, from ``eigh`` of the smaller squared matrix: the n x n Gram
    matrix when m > n, with axes ``Xc^T U / s``, else the m x m scatter
    matrix.  An eigenvalue counts as zero (returned as 0) unless it exceeds
    ``RANK_EPS`` times the largest: the cut is relative, so a pool's rank
    does not depend on its units, and it exceeds ``eigh``'s rounding noise
    (eps * max(n, m) times the largest) while max(n, m) < 450,000.  At most
    ``r`` sign-fixed axes are returned; the Gram route stops at the last
    non-zero eigenvalue.
    """
    n, m = Xc.shape
    gram = m > n
    w, V = np.linalg.eigh(Xc @ Xc.T if gram else Xc.T @ Xc)
    w, V = w[::-1], V[:, ::-1]
    w = np.where(w > w[0] * RANK_EPS, w, 0.0)
    if gram:
        k = min(r, np.count_nonzero(w))
        vecs = (Xc.T @ V[:, :k]) / np.sqrt(w[:k])
    else:
        vecs = V[:, :r]
    return w / n, flip_signs(vecs).T


def _effective_dim(requested: int, n_rows: int, meta: dict) -> int:
    """Shrink ``requested`` to n_rows - 1 when the pool is too small.

    A pool of n samples spans at most n - 1 centered directions, so rather
    than failing the episode the fit proceeds at the reduced dimension and
    records the reduction.
    """
    if n_rows < requested + 1:
        reduced = n_rows - 1
        meta["r_reduced"] = {"requested": requested, "used": reduced}
        return reduced
    return requested


class PoolDecomposition:
    """One decomposition of a sample pool, shared by all of its projections.

    Holds the pool mean, the centered pool, the descending covariance
    eigenvalues (0 where ``_decompose``'s relative cut says zero) and the
    leading sign-fixed principal axes, up to the ``r`` it was built for.
    :meth:`project` then builds a PCA or whitening projection of any
    dimension up to ``r`` that the non-zero eigenvalues span, without
    touching the pool again; ``centered @ P.W.T`` is ``P.apply(pool)`` bit
    for bit.
    """

    def __init__(self, X, r: int):
        X = as_matrix(X)
        if X.shape[0] < 2:
            raise ValueError("insufficient samples")
        self.n_rows = X.shape[0]
        self.mean = X.mean(axis=0)
        self.centered = X - self.mean
        self.eigenvalues, self.axes = _decompose(self.centered, r)

    def project(self, kind: str, r: int) -> SubspaceProjection:
        """The ``kind`` projection onto the top ``r`` axes, with ``r`` shrunk
        on a small pool as ``fit_pca`` and ``fit_ica`` do (``whiten`` raises
        instead).  ``"pca"`` is what ``fit_pca(pool, r)`` returns;
        ``"whiten"`` is ``fit_ica`` without its final orthogonal unmixing
        rotation."""
        if kind not in ("pca", "whiten"):
            raise ValueError(f"unknown projection {kind!r}; choose from pca, whiten")
        meta: dict = {}
        return self._project(_effective_dim(r, self.n_rows, meta), kind, meta)

    def _project(self, r: int, method: str, meta: dict) -> SubspaceProjection:
        if r < 1:
            raise ValueError("r must be >= 1")
        available = np.count_nonzero(self.eigenvalues)
        if r > available:
            raise ValueError(f"rank deficient: requested {r}, available {available}")
        if r > self.axes.shape[0]:
            raise ValueError(f"decomposition holds {self.axes.shape[0]} axes, {r} requested")
        if method == "whiten" and r == self.n_rows - 1:
            # n rows span n - 1 centered directions; whitened to all of them
            # they sit pairwise equidistant, so distances there decide nothing.
            warnings.warn(
                f"whitening a pool of n = {self.n_rows} rows to r = {r} = n - 1 dimensions makes it a regular "
                "simplex; distance-based decisions there are rounding noise",
                NumericalWarning,
                stacklevel=3,
            )
        evals = self.eigenvalues[:r]
        W = self.axes[:r] / np.sqrt(evals)[:, None] if method == "whiten" else self.axes[:r].copy()
        meta["eigenvalues"] = evals.copy()
        return SubspaceProjection(W=W, center=self.mean, method=method, meta=meta)


def whiten(X, r: int) -> tuple[np.ndarray, SubspaceProjection]:
    """Whiten ``X`` down to ``r`` dimensions.

    Output columns have zero mean, unit (divisor-n) variance and zero
    pairwise covariance.  Raises when fewer than ``r`` eigenvalues exceed
    ``RANK_EPS`` times the largest; the cut is relative, so whether it
    raises does not depend on the units of ``X``.
    """
    proj = PoolDecomposition(X, r)._project(r, "whiten", {})
    return proj.apply(X), proj


def fit_pca(X, r: int = PCA_DEFAULT_DIM) -> SubspaceProjection:
    """Fit a PCA projection onto the top-``r`` variance directions of ``X``.

    Rows of ``W`` are the orthonormal eigenvectors of the divisor-n
    covariance, ordered by descending eigenvalue; the training data
    projected through the result has per-dimension variance equal to those
    eigenvalues.
    """
    return PoolDecomposition(X, r).project("pca", r)


def _sym_decorrelate(W: np.ndarray) -> np.ndarray:
    """Replace ``W`` by (W W^T)^(-1/2) W, making its rows orthonormal."""
    d, V = np.linalg.eigh(W @ W.T)
    d = np.maximum(d, 1e-12)
    return (V / np.sqrt(d)) @ V.T @ W


def _fastica_parallel(Z: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, bool, int]:
    """Symmetric fixed-point FastICA with tanh nonlinearity on whitened ``Z``.

    Returns (orthogonal unmixing matrix, converged flag, iterations run).
    Convergence is measured as max_i | |diag(W_new W_old^T)|_i - 1 |.
    """
    n, r = Z.shape
    W = _sym_decorrelate(rng.standard_normal((r, r)))
    converged = False
    iterations = 0
    for iterations in range(1, ICA_MAX_ITER + 1):
        S = Z @ W.T
        G = np.tanh(S)
        # Fixed-point update w <- E[z g(w.z)] - E[g'(w.z)] w with g = tanh.
        W_new = (G.T @ Z) / n - (1.0 - G * G).mean(axis=0)[:, None] * W
        W_new = _sym_decorrelate(W_new)
        delta = float(np.abs(np.abs(np.einsum("ij,ij->i", W_new, W)) - 1.0).max())
        W = W_new
        if delta < ICA_TOL:
            converged = True
            break
    return W, converged, iterations


def _excess_kurtosis(S: np.ndarray) -> np.ndarray:
    """Per-column excess kurtosis, used to order ICA components."""
    Sc = S - S.mean(axis=0)
    m2 = (Sc * Sc).mean(axis=0)
    m4 = (Sc**4).mean(axis=0)
    m2 = np.maximum(m2, 1e-300)
    return m4 / (m2 * m2) - 3.0


def fit_ica(X, r: int = ICA_DEFAULT_DIM, seed: int = 0) -> SubspaceProjection:
    """Fit a FastICA projection: whiten ``X`` to ``r`` dimensions, then unmix.

    The unmixing matrix starts from a seeded orthonormalized normal draw and
    iterates the symmetric tanh fixed point; the result is deterministic for
    a fixed seed.  Components are ordered by descending excess kurtosis of
    the projected training data.  If the fixed point does not converge
    within the iteration budget the best iterate is returned with
    ``meta["converged"] = False``.
    """
    X = as_matrix(X)
    meta: dict = {}
    r = _effective_dim(r, X.shape[0], meta)
    Z, white = whiten(X, r)

    rng = np.random.default_rng(seed)
    W_unmix, converged, iterations = _fastica_parallel(Z, rng)
    meta["converged"] = converged
    meta["iterations"] = iterations

    order = np.argsort(-_excess_kurtosis(Z @ W_unmix.T), kind="stable")
    W_unmix = W_unmix[order]

    # Sign convention on the full map keeps outputs deterministic; flipping a
    # row flips the corresponding component, which ICA leaves unidentified.
    W = flip_signs((W_unmix @ white.W).T).T
    return SubspaceProjection(W=W, center=white.center, method="ica", meta=meta)
