"""Dense linear-algebra primitives shared by the rest of the package.

Everything here computes in float64, except :func:`as_matrix`, which
validates to the ``dtype`` it is given (float32 for a float32 feature
store).  Each routine is a pure function of its inputs, so all are safe to
call concurrently from parallel episode workers.  The exception is the
BLAS thread control at the end (:func:`single_blas_thread`), which sets a
process-wide count.

Convention: covariances use the population divisor ``n`` (not ``n - 1``).
Eigenvalues quoted anywhere in this package follow that convention, which
matters when comparing against per-dimension variances.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import operator
import os
import sys
import warnings
from contextlib import contextmanager

import numpy as np

__all__ = [
    "BlasThreadWarning",
    "NumericalWarning",
    "as_matrix",
    "blas_threads",
    "pairwise_sqdist",
    "set_blas_threads",
    "single_blas_thread",
    "softmax_rows",
    "sym_eig",
]

class NumericalWarning(UserWarning):
    """Degenerate numerical input handled by a documented fallback."""


_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def warn_numerical(message: str) -> None:
    """Issue a :class:`NumericalWarning` at the caller's line: the first
    frame outside this package, however deep in it the fallback ran.
    Python reports a warning once per location, so a fixed ``stacklevel``
    that lands inside the package would show it once per process."""
    frame, level = sys._getframe(1), 2
    while frame is not None and os.path.abspath(frame.f_code.co_filename).startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, NumericalWarning, stacklevel=level)


def as_matrix(x, name: str = "matrix", dtype=np.float64) -> np.ndarray:
    """Validate ``x`` as a finite 2-D array of ``dtype`` (float64 unless
    given) and return it, uncopied if it already is one.  A non-finite value
    is reported by the first row that holds one."""
    X = np.asarray(x, dtype=dtype)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {X.shape}")
    # The row search runs only on failure: a per-row check costs more than one over the whole array.
    if X.size and not np.isfinite(X).all():
        row = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise ValueError(f"non-finite value in {name}, row {row}")
    return X


def as_matrices(**sets) -> list[np.ndarray]:
    """Validate each of ``sets`` with :func:`as_matrix`, named by its
    keyword, and return them in order; raise a ValueError if they differ in
    width, naming the first set and the first that differs from it."""
    matrices = [as_matrix(x, name) for name, x in sets.items()]
    (first, A), *rest = zip(sets, matrices)
    for name, B in rest:
        if B.shape[1] != A.shape[1]:
            raise ValueError(f"dimension mismatch: {A.shape[1]} columns in {first}, {B.shape[1]} in {name}")
    return matrices


def as_count(value, name: str, low: int = 0) -> int:
    """``value``, a Python or numpy integer of at least ``low``, as an int; anything else raises a ValueError naming ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}") from None
    if count < low:
        raise ValueError(f"{name} must be >= {low}, got {count}")
    return count


def as_real(value, name: str, interval: str = "(-inf, inf)") -> float:
    """``value``, a finite Python or numpy real number in ``interval``, such as ``"[0, 1)"``, as a float; else a ValueError naming ``name``."""
    low, high = map(float, interval[1:-1].split(","))
    x = float(value) if isinstance(value, (int, float, np.integer, np.floating)) else np.nan
    if not (np.isfinite(x) and (low <= x if interval[0] == "[" else low < x) and (x <= high if interval[-1] == "]" else x < high)):
        raise ValueError(f"{name} must be a finite real number in {interval}, got {value!r}")
    return x


def as_choice(value, name: str, choices) -> None:
    """Raise a ValueError naming ``name`` and listing ``choices`` unless ``value`` is one of those names."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"unknown {name} {value!r}; choose from {', '.join(choices)}")


def as_labels(labels, rows: int, name: str = "support") -> tuple[np.ndarray, np.ndarray]:
    """Validate ``labels`` as the labels of ``rows`` rows of ``name`` (at
    least one row; 1-D, one per row, no NaN) and return ``(classes,
    index)``: the sorted distinct labels and each row's position among them.

    Equal to ``np.unique(labels, return_inverse=True)`` in values and dtype,
    but sorted here: numpy >= 2.3's ``np.unique`` imports ``numpy.ma``,
    which would add 1.6 MB of RSS to every run for this one call.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-dimensional, got shape {labels.shape}")
    if labels.shape[0] != rows:
        raise ValueError(f"labels length must match {name} rows")
    if not rows:
        raise ValueError(f"no {name} rows")
    ids = np.sort(labels)
    # NaN sorts last, and would be a class of its own with no member.
    if ids.dtype.kind in "fc" and np.isnan(ids[-1]):
        raise ValueError("labels must not contain NaN")
    classes = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
    return classes, np.searchsorted(classes, labels)


def sym_eig(C) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)``, eigenvectors as orthonormal
    columns, in ``eigh``'s ascending order reversed: eigenvalues descend.
    Each eigenvector is flipped so that its largest-magnitude entry is
    positive, making the output deterministic up to degenerate eigenvalues.

    Input must be symmetric within 1e-8 (relative to its largest entry);
    it is symmetrized via (C + C^T)/2 before decomposition.  A 0 x 0 input
    returns two empty arrays.
    """
    C = as_matrix(C)
    if C.shape[0] != C.shape[1]:
        raise ValueError(f"matrix must be square, got shape {C.shape}")
    if not C.size:
        return np.zeros(0), np.zeros((0, 0))
    scale = max(1.0, float(np.abs(C).max()))
    if float(np.abs(C - C.T).max()) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    evals, evecs = np.linalg.eigh((C + C.T) / 2.0)
    return evals[::-1], flip_signs(evecs[:, ::-1])


def flip_signs(V: np.ndarray) -> np.ndarray:
    """Flip each column of ``V`` so its largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


def pairwise_sqdist(A: np.ndarray, B: np.ndarray, a_sq: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between rows of ``A`` and rows of ``B``.

    Computed from the expansion |a|^2 - 2 a.b + |b|^2 with a clamp at zero,
    so tiny negative values from cancellation never leak out.  ``a_sq`` is
    ``A``'s squared row norms, ``(A * A).sum(axis=1)``, for callers that
    measure many ``B`` against one ``A``; the result is bit-identical.
    Recomputing them in every call leaves every accuracy unchanged but costs
    a ``semi``-shaped run +20% CPU: 7.5 -> 9.1 ms/episode (bkm, msp, pca-bkm,
    pca-msp; float32 20 x 600 reference-spec store; 2-CPU Xeon, one thread).
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if a_sq is None:
        a_sq = (A * A).sum(axis=1)
    sq = a_sq[:, None] - 2.0 * (A @ B.T) + (B * B).sum(axis=1)[None, :]
    return np.maximum(sq, 0.0)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for numerical stability, by
    numpy's plain row max and sum.  A max over the transposed copy is exact
    and faster on 805 x 5 logits, but no benchmark workload passes more than
    80 rows, where it gains nothing; a transposed sum is not exact, as
    numpy's summation order depends on the row length."""
    logits = np.asarray(logits, dtype=np.float64)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class BlasThreadWarning(RuntimeWarning):
    """No OpenBLAS thread control was found; BLAS keeps its own thread count."""


# (get, set) symbol pairs of the OpenBLAS builds numpy ships or links:
# scipy-openblas wheels, ILP64 builds and plain builds.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_paths() -> list[str]:
    """Candidate files of the OpenBLAS numpy loaded: the libraries its wheel
    bundles, then any mapped into this process (where /proc lists them)."""
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as f:
            paths += [line.split()[-1] for line in f if "openblas" in line.rsplit("/", 1)[-1]]
    return list(dict.fromkeys(paths))


@functools.cache
def _find_blas():
    """The (get, set) thread-count functions of the loaded OpenBLAS, or None.

    Libraries are opened with ``RTLD_NOLOAD``, so only one already in the
    process can match; nothing new is loaded.
    """
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def blas_threads() -> int | None:
    """The loaded OpenBLAS's thread count, or None when it is not controllable."""
    blas = _find_blas()
    return None if blas is None else int(blas[0]())


def set_blas_threads(n: int) -> int | None:
    """Set the loaded OpenBLAS's thread count to ``n`` (process-wide) and
    return the previous count; None, changing nothing, when no controllable
    OpenBLAS is found."""
    blas = _find_blas()
    if blas is None:
        return None
    previous = int(blas[0]())
    blas[1](n)
    return previous


@contextmanager
def single_blas_thread():
    """Run the block on one BLAS thread and restore the previous count on
    exit, also when the block raises.

    On the small matrices of an episode, a second BLAS thread only spins
    beside the first, doubling the CPU time per episode, and in a process
    pool it competes with the other workers, which made two workers slower
    than one.  Without a controllable OpenBLAS the block runs unchanged,
    with a :class:`BlasThreadWarning`; results do not depend on it.
    """
    previous = set_blas_threads(1)
    if previous is None:
        warnings.warn("no controllable OpenBLAS found; BLAS keeps its own thread count", BlasThreadWarning, stacklevel=3)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)
