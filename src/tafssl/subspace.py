"""Task-adaptive feature subspace fitting: PCA, whitening, and FastICA.

A few-shot episode pools its samples (support + queries in the transductive
setting, support + extra unlabeled data in the semi-supervised one) and fits
a low-dimensional linear map on that pool alone.  The fitted
:class:`SubspaceProjection` then maps every set of the episode into the
subspace where classification happens.

Every projection of a pool derives from one decomposition of it
(:class:`PoolDecomposition`): ``sym_eig`` of the smaller of the pool's two
squared matrices, the n x n Gram matrix when it has more columns m than
rows n, the m x m scatter matrix otherwise.  No projection takes an SVD; a
thin SVD is only the tests' oracle for the decomposition.

Dimension defaults: 4 components for PCA, 10 for ICA.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from tafssl.linalg import as_choice, as_count, as_matrices, as_matrix, flip_signs, sym_eig, warn_numerical

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
        W, X = as_matrices(projection=self.W, X=X)
        return (X - self.center) @ W.T


def _decompose(Xc: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (eigenvalues desc, leading axes as rows) of the centered pool ``Xc``.

    The eigenvalues are all min(n, m) eigenvalues of the divisor-n
    covariance, from ``sym_eig`` of the smaller squared matrix, which is
    exactly symmetric, so its symmetrization changes nothing: the n x n Gram
    matrix when m > n, with axes ``Xc^T U / s``, else the m x m scatter
    matrix, whose eigenvectors are the axes.  An eigenvalue counts as zero
    (returned as 0) unless it exceeds ``RANK_EPS`` times the largest: the
    cut is relative, so a pool's rank does not depend on its units, and it
    exceeds ``eigh``'s rounding noise (eps * max(n, m) times the largest)
    while max(n, m) < 450,000.  At most ``r`` sign-fixed axes are returned;
    the Gram route stops at the last non-zero eigenvalue.
    """
    n, m = Xc.shape
    gram = m > n
    w, V = sym_eig(Xc @ Xc.T if gram else Xc.T @ Xc)
    # w[:1]: a pool with no columns has no eigenvalue, and so no rank.
    w = np.where(w > w[:1] * RANK_EPS, w, 0.0)
    if not gram:
        return w / n, V[:, :r].T
    k = min(r, np.count_nonzero(w))
    return w / n, flip_signs((Xc.T @ V[:, :k]) / np.sqrt(w[:k])).T


class PoolDecomposition:
    """One decomposition of a sample pool, shared by all of its projections.

    Holds the pool mean, the centered pool, the descending covariance
    eigenvalues (0 where ``_decompose``'s relative cut says zero) and the
    leading sign-fixed principal axes, up to the ``r`` it was built for.
    :meth:`project` is the one place a projection is made from them: a PCA
    or whitening projection of any dimension up to ``r``, without touching
    the pool again; ``centered @ P.W.T`` is ``P.apply(pool)`` bit for bit.
    ``r`` is an integer >= 1; a non-integer raises ValueError.
    """

    def __init__(self, X, r: int):
        X = as_matrix(X)
        if X.shape[0] < 2:
            raise ValueError("insufficient samples")
        self.mean = X.mean(axis=0)
        self.centered = X - self.mean
        self.eigenvalues, self.axes = _decompose(self.centered, as_count(r, "r", 1))

    def project(self, kind: str, r: int) -> SubspaceProjection:
        """The ``kind`` projection onto the top ``r`` axes: ``"pca"`` is
        ``fit_pca(pool, r)``, ``"whiten"`` is ``whiten(pool, r)``, which is
        ``fit_ica`` without its final orthogonal unmixing rotation.

        A pool of n rows spans at most n - 1 centered directions, so on a
        pool of n <= r rows the projection has r = n - 1 and records the
        reduction in ``meta["r_reduced"]`` rather than failing the episode.
        Raises when fewer eigenvalues than that ``r`` are non-zero.  A
        whitening to r = n - 1 warns (:class:`NumericalWarning`); a PCA
        projection to r = n - 1 does not.  A non-integer ``r`` raises.
        """
        as_choice(kind, "projection", ("pca", "whiten"))
        n = self.centered.shape[0]
        meta: dict = {}
        r = as_count(r, "r", 1)
        if r > n - 1:
            meta["r_reduced"] = {"requested": r, "used": n - 1}
            r = n - 1
        available = np.count_nonzero(self.eigenvalues)
        if r > available:
            raise ValueError(f"rank deficient: requested {r}, available {available}")
        if r > self.axes.shape[0]:
            raise ValueError(f"decomposition holds {self.axes.shape[0]} axes, {r} requested")
        if kind == "whiten" and r == n - 1:
            # n rows span n - 1 centered directions; whitened to all of them
            # they sit pairwise equidistant, so distances there decide nothing.
            warn_numerical(
                f"whitening a pool of n = {n} rows to r = {r} = n - 1 dimensions makes it a regular "
                "simplex; distance-based decisions there are rounding noise"
            )
        evals = self.eigenvalues[:r]
        W = self.axes[:r] / np.sqrt(evals)[:, None] if kind == "whiten" else self.axes[:r].copy()
        meta["eigenvalues"] = evals.copy()
        return SubspaceProjection(W=W, center=self.mean, method=kind, meta=meta)


def whiten(X, r: int) -> tuple[np.ndarray, SubspaceProjection]:
    """Whiten ``X`` down to ``r`` dimensions; returns (whitened ``X``, projection).

    Output columns have zero mean, unit (divisor-n) variance and zero
    pairwise covariance.  On a pool of n <= r rows ``r`` shrinks to n - 1
    as in :meth:`PoolDecomposition.project`.  Raises when fewer eigenvalues
    than that ``r`` exceed ``RANK_EPS`` times the largest; the cut is
    relative, so whether it raises does not depend on the units of ``X``:
    scaling ``X`` by c divides ``W`` by c and leaves the output unchanged up
    to rounding.  A non-integer ``r`` raises.
    """
    d = PoolDecomposition(X, r)
    proj = d.project("whiten", r)
    return d.centered @ proj.W.T, proj


def fit_pca(X, r: int = PCA_DEFAULT_DIM) -> SubspaceProjection:
    """Fit a PCA projection onto the top-``r`` variance directions of ``X``.

    Rows of ``W`` are the orthonormal eigenvectors of the divisor-n
    covariance, ordered by descending eigenvalue; the training data
    projected through the result has per-dimension variance equal to those
    eigenvalues.  A non-integer ``r`` raises.
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
    ``meta["converged"] = False``.  On a small pool ``r`` shrinks as in
    :func:`whiten`, whose ``meta["r_reduced"]`` it carries.  A non-integer
    ``r`` raises.
    """
    Z, white = whiten(X, r)
    meta = {"r_reduced": white.meta["r_reduced"]} if "r_reduced" in white.meta else {}

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
