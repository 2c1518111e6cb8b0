"""Unit and property tests for the dense linear-algebra primitives."""

import numpy as np
import pytest

from tafssl import linalg
from tafssl.linalg import (
    BlasThreadWarning,
    as_matrix,
    blas_threads,
    column_mean,
    covariance,
    pairwise_sqdist,
    row_max,
    set_blas_threads,
    single_blas_thread,
    softmax_rows,
    sym_eig,
)


def cov_bruteforce(X):
    """Independent double-loop covariance with divisor n."""
    X = np.asarray(X, dtype=float)
    n, m = X.shape
    mu = [sum(X[i, j] for i in range(n)) / n for j in range(m)]
    C = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            C[a, b] = sum((X[i, a] - mu[a]) * (X[i, b] - mu[b]) for i in range(n)) / n
    return C


class TestColumnMean:
    def test_basic(self):
        np.testing.assert_allclose(column_mean([[1, 2], [3, 4]]), [2, 3])

    def test_single_row(self):
        np.testing.assert_allclose(column_mean([[5, 5]]), [5, 5])

    def test_statistical(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((100, 3))
        assert np.all(np.abs(column_mean(X)) < 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            column_mean(np.empty((0, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            column_mean([[1.0, np.nan]])


class TestCovariance:
    def test_hand_example(self):
        np.testing.assert_allclose(covariance([[1, 1], [-1, -1]]), [[1, 1], [1, 1]])

    def test_repeated_row_is_zero(self):
        X = np.tile([[3.0, -2.0, 7.0]], (6, 1))
        np.testing.assert_allclose(covariance(X), np.zeros((3, 3)), atol=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            X = rng.standard_normal((rng.integers(2, 12), rng.integers(1, 5)))
            np.testing.assert_allclose(covariance(X), cov_bruteforce(X), atol=1e-12)

    def test_orthogonal_points_diagonal(self):
        # Scaled axis vectors and their negatives: coordinates are uncorrelated.
        X = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        C = covariance(X)
        np.testing.assert_allclose(C, np.diag(np.diag(C)), atol=1e-12)
        np.testing.assert_allclose(C, cov_bruteforce(X), atol=1e-12)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 4))
        np.testing.assert_allclose(covariance(X), covariance(X[rng.permutation(20)]), atol=1e-12)

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(3)
        C = covariance(rng.standard_normal((30, 6)))
        assert np.abs(C - C.T).max() <= 1e-10
        assert np.linalg.eigvalsh(C).min() >= -1e-10

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="insufficient samples"):
            covariance([[1.0, 2.0]])


class TestSymEig:
    def test_diagonal(self):
        evals, evecs = sym_eig([[2.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(evals, [2, 1])
        np.testing.assert_allclose(np.abs(evecs), np.eye(2), atol=1e-12)

    def test_rank_one(self):
        evals, evecs = sym_eig([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(evals, [2, 0], atol=1e-12)
        np.testing.assert_allclose(np.abs(evecs[:, 0]), [1 / np.sqrt(2)] * 2)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((10, 10))
        C = (A + A.T) / 2
        evals, V = sym_eig(C)
        np.testing.assert_allclose(V @ np.diag(evals) @ V.T, C, atol=1e-8)
        np.testing.assert_allclose(V.T @ V, np.eye(10), atol=1e-8)
        assert np.all(np.diff(evals) <= 1e-12)

    def test_sign_convention(self):
        _, V = sym_eig([[2.0, 0.0], [0.0, 1.0]])
        idx = np.argmax(np.abs(V), axis=0)
        assert np.all(V[idx, np.arange(2)] > 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            sym_eig(np.ones((2, 3)))


class TestHelpers:
    def test_pairwise_sqdist_matches_naive(self):
        rng = np.random.default_rng(5)
        A, B = rng.standard_normal((7, 3)), rng.standard_normal((4, 3))
        naive = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(pairwise_sqdist(A, B), naive, atol=1e-10)

    def test_pairwise_sqdist_nonnegative(self):
        X = np.tile([[1e8, -1e8]], (3, 1))
        assert pairwise_sqdist(X, X).min() >= 0.0

    def test_pairwise_sqdist_with_given_row_norms_is_bit_identical(self):
        rng = np.random.default_rng(6)
        A, B = rng.standard_normal((80, 10)), rng.standard_normal((5, 10))
        assert np.array_equal(pairwise_sqdist(A, B, (A * A).sum(axis=1)), pairwise_sqdist(A, B))

    def test_softmax_rows(self):
        P = softmax_rows(np.array([[0.0, 0.0], [1000.0, 0.0]]))
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(P[0], [0.5, 0.5])
        assert P[1, 0] > 0.999

    def test_as_matrix_rejects_1d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            as_matrix([1.0, 2.0])


# softmax_rows as it stood before its row max moved to row_max.  Kept
# verbatim as the oracle the rewrite must match bit for bit.
def _parent_softmax_rows(logits):
    logits = np.asarray(logits, dtype=np.float64)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class TestRowMax:
    """row_max is X.max(axis=1), and softmax_rows is bit-identical to the
    parent above, at the pool shapes the heads see and at widths on both
    sides of numpy's 8-column summation change."""

    @pytest.mark.parametrize("n, m", [(805, 64), (805, 4), (80, 1024), (80, 10)])
    @pytest.mark.parametrize("width", [1, 2, 5, 7, 8, 9, 12, 16, 33])
    def test_softmax_rows_matches_parent(self, n, m, width):
        rng = np.random.default_rng((n, m, width))
        pool = rng.normal(size=(n, m))
        for scale in (0.1, 1.0, 30.0):  # at 30 most rows underflow to one-hot
            logits = -pairwise_sqdist(scale * pool, scale * pool[rng.integers(n, size=width)])
            assert np.array_equal(row_max(logits), logits.max(axis=1))
            assert np.array_equal(softmax_rows(logits), _parent_softmax_rows(logits))

    def test_ties_zeros_and_infinities(self):
        X = np.array(
            [
                [0.0, -0.0, -1.0, -0.0, 0.0, -2.0, -3.0, 0.0, -0.0],
                [-np.inf, -np.inf, -5.0, -5.0, -np.inf, -6.0, -7.0, -8.0, -9.0],
                [3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0],
                [np.inf, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            ]
        )
        for width in range(1, X.shape[1] + 1):
            assert np.array_equal(row_max(X[:, :width]), X[:, :width].max(axis=1))
        logits = X[:3]
        assert np.array_equal(softmax_rows(logits), _parent_softmax_rows(logits))

    def test_no_rows(self):
        assert row_max(np.empty((0, 5))).shape == (0,)


def test_numpy_floating_point_warnings_fail_tests():
    # pyproject.toml turns these RuntimeWarnings into errors for the suite.
    with pytest.raises(RuntimeWarning, match="overflow encountered"):
        np.exp(np.array([1000.0]))
    with pytest.raises(RuntimeWarning, match="divide by zero encountered"):
        np.log(np.array([0.0]))
    with pytest.raises(RuntimeWarning, match="invalid value encountered"):
        np.sqrt(np.array([-1.0]))


class TestSingleBlasThread:
    @pytest.fixture
    def start(self):
        if blas_threads() is None:
            pytest.skip("no controllable OpenBLAS")
        original = set_blas_threads(2)
        yield 2
        set_blas_threads(original)

    def test_pins_one_thread_and_restores(self, start):
        with single_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == start

    def test_restores_when_the_block_raises(self, start):
        with pytest.raises(KeyError):
            with single_blas_thread():
                raise KeyError("boom")
        assert blas_threads() == start

    def test_nested_blocks_restore_the_outer_count(self, start):
        with single_blas_thread():
            with single_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == start

    def test_without_openblas_warns_and_runs_the_block(self, monkeypatch):
        monkeypatch.setattr(linalg, "_find_blas", lambda: None)
        ran = False
        with pytest.warns(BlasThreadWarning, match="no controllable OpenBLAS"):
            with single_blas_thread():
                ran = True
        assert ran
        assert blas_threads() is None
        assert set_blas_threads(1) is None
