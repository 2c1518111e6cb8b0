"""Unit and property tests for the dense linear-algebra primitives."""

import re
import reprlib
import warnings

import numpy as np
import pytest

from tafssl import linalg
from tafssl.classify import sub
from tafssl.cluster import bkm, kmeans, msp
from tafssl.config import BenchmarkConfig, parse_method
from tafssl.episodes import EpisodeSpec, MoGSpec, generate_mog_store, mutual_information_diagnostic, sample_episode
from tafssl.linalg import (
    BlasThreadWarning,
    NumericalWarning,
    as_matrix,
    blas_threads,
    pairwise_sqdist,
    set_blas_threads,
    single_blas_thread,
    softmax_rows,
    sym_eig,
)
from tafssl.subspace import PoolDecomposition, fit_ica, fit_pca, whiten


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

    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    def test_symmetry_is_checked_relative_to_the_largest_entry(self, scale):
        # Scaling a matrix changes no verdict; scale 1 is the test above.
        sym_eig(scale * np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig(scale * np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_zero_matrix_is_symmetric(self):
        evals, _ = sym_eig(np.zeros((2, 2)))
        assert np.array_equal(evals, [0.0, 0.0])

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


_POOL = np.random.default_rng(3).normal(size=(12, 4))
_SPEC = MoGSpec(m=4, signal_dims=2)
_MIX = (_POOL[:4], [0, 0, 1, 1], _POOL[4:8], _POOL)

# Every public count parameter: (call with the count, the name its error
# gives, a valid count).
COUNTS = {
    "EpisodeSpec-ways": (lambda v: EpisodeSpec(ways=v), "ways", 3),
    "EpisodeSpec-shots": (lambda v: EpisodeSpec(shots=v), "shots", 2),
    "EpisodeSpec-queries": (lambda v: EpisodeSpec(queries=v), "queries", 2),
    "EpisodeSpec-unlabeled": (lambda v: EpisodeSpec(mode="semi", unlabeled=v), "unlabeled", 2),
    "EpisodeSpec-distractors": (lambda v: EpisodeSpec(mode="semi", unlabeled=1, distractors=v), "distractors", 1),
    "EpisodeSpec-unbalanced_r": (lambda v: EpisodeSpec(unbalanced_r=v), "unbalanced_r", 2),
    "EpisodeSpec-seed": (lambda v: sample_episode(generate_mog_store(_SPEC, 6, 20), EpisodeSpec(seed=v)), "seed", 3),
    "EpisodeSpec-seed-part": (lambda v: sample_episode(generate_mog_store(_SPEC, 6, 20), EpisodeSpec(seed=(1, v))), "seed", 3),
    "MoGSpec-m": (lambda v: MoGSpec(m=v, signal_dims=1), "m", 3),
    "MoGSpec-signal_dims": (lambda v: MoGSpec(m=4, signal_dims=v), "signal_dims", 2),
    "generate_mog_store-classes": (lambda v: generate_mog_store(_SPEC, v, 3), "classes", 2),
    "generate_mog_store-per_class": (lambda v: generate_mog_store(_SPEC, 2, v), "per_class", 3),
    "generate_mog_store-seed": (lambda v: generate_mog_store(_SPEC, 2, 3, v), "seed", 3),
    "mutual_information_diagnostic-bins": (lambda v: mutual_information_diagnostic(_POOL, [0, 1] * 6, bins=v), "bins", 4),
    "BenchmarkConfig-episodes": (lambda v: BenchmarkConfig(episodes=v).pipelines(), "episodes", 2),
    "BenchmarkConfig-workers": (lambda v: BenchmarkConfig(workers=v).pipelines(), "workers", 2),
    "BenchmarkConfig-seed": (lambda v: BenchmarkConfig(seed=v).pipelines(), "seed", 3),
    "parse_method-dim": (lambda v: parse_method("pca-nn", v), "dim", 3),
    "kmeans-k": (lambda v: kmeans(_POOL, v), "k", 2),
    "bkm-k": (lambda v: bkm(*_MIX, k=v), "k", 2),
    "msp-iterations": (lambda v: msp(*_MIX, iterations=v), "iterations", 2),
    "PoolDecomposition-r": (lambda v: PoolDecomposition(_POOL, v), "r", 2),
    "project-r": (lambda v: PoolDecomposition(_POOL, 3).project("pca", v), "r", 2),
    "fit_pca-r": (lambda v: fit_pca(_POOL, v), "r", 2),
    "whiten-r": (lambda v: whiten(_POOL, v), "r", 2),
    "fit_ica-r": (lambda v: fit_ica(_POOL, v), "r", 2),
}


@pytest.mark.parametrize("case", COUNTS)
def test_a_count_that_is_not_an_integer_is_named(case):
    call, name, valid = COUNTS[case]
    with pytest.raises(ValueError, match=rf"\b{name} must be an integer >= \d+, got 2\.5$"):
        call(2.5)
    call(np.int64(valid))


@pytest.mark.parametrize("case", COUNTS)
@pytest.mark.parametrize("flag", [True, np.True_], ids=repr)
def test_a_bool_is_not_a_count(case, flag):
    call, name, _ = COUNTS[case]
    with pytest.raises(ValueError, match=rf"\b{name} must be an integer >= \d+, got {re.escape(repr(flag))}$"):
        call(flag)


# Every real and every name setting, and signal_dims, a count compared with
# m: (call with the value, the name its error gives, a valid value, numpy
# for a real, the wrong values).  A real's wrong values include a bool and
# ints beyond float range.
_REAL = (None, "0.5", np.nan, np.inf, True, 10**400, -(10**400))
_NAME = (None, ["nn"])
SETTINGS = {
    "MoGSpec-signal_dims": (lambda v: MoGSpec(m=4, signal_dims=v), "signal_dims", np.int64(2), (None,)),
    "MoGSpec-rho_signal": (lambda v: MoGSpec(m=4, signal_dims=1, rho_signal=v), "rho_signal", np.float32(0.5), _REAL),
    "MoGSpec-mu_noise": (lambda v: MoGSpec(m=4, signal_dims=1, mu_noise=v), "mu_noise", np.int64(-2), _REAL),
    "MoGSpec-sigma_noise": (lambda v: MoGSpec(m=4, signal_dims=1, sigma_noise=v), "sigma_noise", np.float32(0.5), _REAL),
    "MoGSpec-sigma_between": (lambda v: MoGSpec(m=4, signal_dims=1, sigma_between=v), "sigma_between", np.int64(2), _REAL),
    "MoGSpec-sigma_signal": (lambda v: MoGSpec(m=4, signal_dims=1, sigma_signal=v), "sigma_signal", np.float32(2.0), _REAL),
    "msp-threshold": (lambda v: msp(*_MIX, threshold=v), "threshold", np.float32(0.5), _REAL),
    "parse_method-name": (lambda v: parse_method(v), "method", "pca-nn", _NAME),
    "BenchmarkConfig-method": (lambda v: BenchmarkConfig(method=v).pipelines(), "method", "nn", _NAME),
    "BenchmarkConfig-sweep": (lambda v: BenchmarkConfig(sweep=v).pipelines(), "sweep", "queries", (["nn"],)),  # None is no sweep
    "EpisodeSpec-mode": (lambda v: EpisodeSpec(mode=v), "mode", "transductive", _NAME),
    "project-kind": (lambda v: PoolDecomposition(_POOL, 3).project(v, 2), "projection", "whiten", _NAME),
}
_WRONG_KIND = [(case, value) for case, (*_, wrong) in SETTINGS.items() for value in wrong]


@pytest.mark.parametrize("case,value", _WRONG_KIND, ids=[f"{case}-{reprlib.repr(value)}" for case, value in _WRONG_KIND])
def test_a_setting_of_the_wrong_kind_is_named(case, value):
    call, name, valid, _ = SETTINGS[case]
    with pytest.raises(ValueError, match=rf"\b{name}\b.*{re.escape(repr(value))}"):
        call(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a valid value, np.float32 too, passes with no warning
        call(valid)


# softmax_rows in its plainest form, with numpy's own row max: the oracle
# that softmax_rows must match bit for bit.
def _ref_softmax_rows(logits):
    logits = np.asarray(logits, dtype=np.float64)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class TestSoftmaxRowsMatchesOracle:
    """softmax_rows is bit-identical to the oracle ``_ref_softmax_rows``, at
    the pool shapes the heads see and at widths on both sides of numpy's
    8-column summation change."""

    @pytest.mark.parametrize("n, m", [(805, 64), (805, 4), (80, 1024), (80, 10)])
    @pytest.mark.parametrize("width", [1, 2, 5, 7, 8, 9, 12, 16, 33])
    def test_pool_shapes(self, n, m, width):
        rng = np.random.default_rng((n, m, width))
        pool = rng.normal(size=(n, m))
        for scale in (0.1, 1.0, 30.0):  # at 30 most rows underflow to one-hot
            logits = -pairwise_sqdist(scale * pool, scale * pool[rng.integers(n, size=width)])
            assert np.array_equal(softmax_rows(logits), _ref_softmax_rows(logits))

    def test_ties_zeros_and_infinities(self):
        X = np.array(
            [
                [0.0, -0.0, -1.0, -0.0, 0.0, -2.0, -3.0, 0.0, -0.0],
                [-np.inf, -np.inf, -5.0, -5.0, -np.inf, -6.0, -7.0, -8.0, -9.0],
                [3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0],
            ]
        )
        assert np.array_equal(softmax_rows(X), _ref_softmax_rows(X))

    def test_no_rows(self):
        assert softmax_rows(np.empty((0, 5))).shape == (0, 5)


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
