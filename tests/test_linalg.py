"""Unit and property tests for the dense linear-algebra primitives."""

import numpy as np
import pytest

from tafssl import linalg
from tafssl.classify import sub
from tafssl.cluster import bkm
from tafssl.linalg import (
    BlasThreadWarning,
    NumericalWarning,
    as_matrix,
    blas_threads,
    pairwise_sqdist,
    row_max,
    set_blas_threads,
    single_blas_thread,
    softmax_rows,
    sym_eig,
)
from tafssl.subspace import PoolDecomposition, fit_ica, whiten


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

    def test_empty_matrix_returns_empty_arrays(self):
        evals, evecs = sym_eig(np.zeros((0, 0)))
        assert evals.shape == (0,) and evecs.shape == (0, 0)


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

    @pytest.mark.parametrize("row,value", [(0, np.nan), (3, np.inf), (3, -np.inf), (6, np.nan)], ids=["first", "middle-inf", "middle-neg-inf", "last"])
    def test_as_matrix_names_the_first_bad_row(self, row, value):
        X = np.ones((7, 4))
        X[row, 2] = value
        X[6, 0] = np.nan  # a later bad row does not hide the first
        with pytest.raises(ValueError, match=rf"^non-finite value in pool, row {row}$"):
            as_matrix(X, "pool")


# softmax_rows in its plainest form, with numpy's own row max: the oracle
# that softmax_rows (through row_max) must match bit for bit.
def _ref_softmax_rows(logits):
    logits = np.asarray(logits, dtype=np.float64)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class TestRowMax:
    """row_max is X.max(axis=1), and softmax_rows is bit-identical to the
    reference above, at the pool shapes the heads see and at widths on both
    sides of numpy's 8-column summation change."""

    @pytest.mark.parametrize("n, m", [(805, 64), (805, 4), (80, 1024), (80, 10)])
    @pytest.mark.parametrize("width", [1, 2, 5, 7, 8, 9, 12, 16, 33])
    def test_softmax_rows_matches_parent(self, n, m, width):
        rng = np.random.default_rng((n, m, width))
        pool = rng.normal(size=(n, m))
        for scale in (0.1, 1.0, 30.0):  # at 30 most rows underflow to one-hot
            logits = -pairwise_sqdist(scale * pool, scale * pool[rng.integers(n, size=width)])
            assert np.array_equal(row_max(logits), logits.max(axis=1))
            assert np.array_equal(softmax_rows(logits), _ref_softmax_rows(logits))

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
        assert np.array_equal(softmax_rows(logits), _ref_softmax_rows(logits))

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


SIMPLEX_POOL = np.random.default_rng(3).standard_normal((5, 10))
WARNING_CALLS = {
    "whiten": (lambda: whiten(SIMPLEX_POOL, 4), "regular simplex"),
    "fit_ica": (lambda: fit_ica(SIMPLEX_POOL, 4), "regular simplex"),
    "project": (lambda: PoolDecomposition(SIMPLEX_POOL, 4).project("whiten", 4), "regular simplex"),
    # The pool row at 1000 gets a cluster of its own, which no support reaches.
    "bkm": (lambda: bkm([[0.0], [1.0]], [0, 1], [[0.5]], [[0.0], [1.0], [0.5], [1000.0]], k=2), "degenerate"),
    # The query is the joint mean, so it centers to a zero row.
    "sub": (lambda: sub(np.array([[1.0, 0.0], [-1.0, 0.0]]), [0, 1], np.array([[0.0, 0.0]]), None, 0), "zero-norm"),
}


@pytest.mark.parametrize("name", WARNING_CALLS)
def test_a_numerical_warning_points_at_the_callers_line(name):
    call, match = WARNING_CALLS[name]
    with pytest.warns(NumericalWarning, match=match) as caught:
        call()
    assert [w.filename for w in caught] == [__file__]


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
