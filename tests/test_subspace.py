"""Tests for whitening, PCA, and FastICA subspace fitting."""

import warnings

import numpy as np
import pytest

from tafssl import subspace
from tafssl.linalg import NumericalWarning, flip_signs, pairwise_sqdist
from tafssl.subspace import ICA_DEFAULT_DIM, PCA_DEFAULT_DIM, RANK_EPS, PoolDecomposition, fit_ica, fit_pca, whiten


def mixed_uniform_sources(seed, n=1500):
    """Two independent unit-variance uniform sources under a random mix."""
    rng = np.random.default_rng((7, seed))
    S = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(n, 2))
    A = rng.normal(size=(2, 2)) + np.eye(2)
    return S @ A.T + rng.normal(size=2), S


def recovery_correlations(recovered, S):
    """Best per-source |correlation| under the two possible pairings."""
    C = np.abs(np.corrcoef(np.hstack([recovered, S]).T)[:2, 2:])
    return max(min(C[0, 0], C[1, 1]), min(C[0, 1], C[1, 0]))


class TestWhiten:
    def test_already_white(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((400, 3))
        Xw, _ = whiten(X, 3)
        np.testing.assert_allclose((Xw.T @ Xw) / len(Xw), np.eye(3), atol=1e-6)
        np.testing.assert_allclose(Xw.mean(axis=0), 0, atol=1e-6)

    def test_anisotropic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0.0, [10.0, 1.0], size=(500, 2))
        Xw, tr = whiten(X, 2)
        np.testing.assert_allclose((Xw.T @ Xw) / len(Xw), np.eye(2), atol=1e-6)
        # The transform reproduces the training output on the same rows.
        np.testing.assert_allclose(tr.apply(X), Xw, atol=1e-10)

    def test_rank_one_data(self):
        t = np.linspace(-1, 1, 50)[:, None]
        X = t @ np.array([[3.0, 4.0]])
        Xw, _ = whiten(X, 1)
        assert Xw.shape == (50, 1)
        np.testing.assert_allclose(Xw.var(axis=0), 1.0, atol=1e-8)

    def test_rank_deficient_rejected(self):
        t = np.linspace(-1, 1, 50)[:, None]
        X = t @ np.array([[3.0, 4.0]])
        with pytest.raises(ValueError, match="rank deficient: requested 2, available 1"):
            whiten(X, 2)

    def test_whitening_whitened_is_orthonormal(self):
        rng = np.random.default_rng(2)
        Xw, _ = whiten(rng.normal(0, [5.0, 2.0, 1.0], size=(600, 3)), 3)
        _, tr2 = whiten(Xw, 3)
        np.testing.assert_allclose(tr2.W @ tr2.W.T, np.eye(3), atol=1e-6)


class TestPca:
    def test_hand_example(self):
        p = fit_pca([[1.0, 1.0], [-1.0, -1.0]], 1)
        np.testing.assert_allclose(np.abs(p.W), [[1 / np.sqrt(2)] * 2], atol=1e-12)
        np.testing.assert_allclose(p.meta["eigenvalues"], [2.0], atol=1e-12)
        proj = p.apply([[1.0, 1.0], [-1.0, -1.0]])
        np.testing.assert_allclose(proj.var(axis=0), 2.0, atol=1e-12)

    def test_projected_variances_are_eigenvalues(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, [4.0, 2.0, 1.0, 0.5], size=(300, 4))
        p = fit_pca(X, 3)
        np.testing.assert_allclose(p.apply(X).var(axis=0), p.meta["eigenvalues"], atol=1e-8)
        assert np.all(np.diff(p.meta["eigenvalues"]) <= 0)

    def test_full_rank_preserves_distances(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 6))
        p = fit_pca(X, 6)
        np.testing.assert_allclose(pairwise_sqdist(p.apply(X), p.apply(X)), pairwise_sqdist(X, X), atol=1e-8)

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(5)
        p = fit_pca(rng.standard_normal((50, 8)), 4)
        np.testing.assert_allclose(p.W @ p.W.T, np.eye(4), atol=1e-8)

    def test_center_maps_to_zero(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 5)) + 3.0
        p = fit_pca(X, 2)
        np.testing.assert_allclose(p.apply(p.center[None, :]), 0.0, atol=1e-10)

    def test_identity_projection_is_identity(self):
        from tafssl.subspace import SubspaceProjection

        p = SubspaceProjection(W=np.eye(3), center=np.zeros(3), method="pca")
        X = np.random.default_rng(0).normal(size=(7, 3))
        np.testing.assert_array_equal(p.apply(X), X)

    def test_default_dim(self):
        rng = np.random.default_rng(7)
        assert fit_pca(rng.standard_normal((40, 9))).r == PCA_DEFAULT_DIM

    def test_rank_deficient(self):
        X = np.repeat(np.linspace(0, 1, 20)[:, None], 3, axis=1)
        with pytest.raises(ValueError, match="rank deficient"):
            fit_pca(X, 2)

    def test_small_pool_reduces_r(self):
        rng = np.random.default_rng(8)
        p = fit_pca(rng.standard_normal((4, 10)), 8)
        assert p.r == 3
        assert p.meta["r_reduced"] == {"requested": 8, "used": 3}

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError, match="^r must be >= 1, got 0$"):
            fit_pca(np.random.default_rng(1).normal(size=(10, 4)), 0)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        p = fit_pca(rng.standard_normal((10, 4)), 2)
        with pytest.raises(ValueError, match="^dimension mismatch: 4 columns in projection, 5 in X$"):
            p.apply(np.zeros((3, 5)))


class TestIca:
    def test_recovers_mixed_uniform_sources(self):
        X, S = mixed_uniform_sources(0)
        proj = fit_ica(X, 2, seed=0)
        assert recovery_correlations(proj.apply(X), S) > 0.95

    def test_unit_variance_output(self):
        X, _ = mixed_uniform_sources(1)
        proj = fit_ica(X, 2, seed=1)
        R = proj.apply(X)
        np.testing.assert_allclose(R.var(axis=0), 1.0, atol=1e-4)
        cov = (R - R.mean(0)).T @ (R - R.mean(0)) / len(R)
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-4)

    def test_gaussian_data_keeps_whitening_contract(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((800, 5))
        proj = fit_ica(X, 2, seed=0)
        assert "converged" in proj.meta
        np.testing.assert_allclose(proj.apply(X).var(axis=0), 1.0, atol=1e-4)

    def test_deterministic_for_seed(self):
        X, _ = mixed_uniform_sources(2)
        a = fit_ica(X, 2, seed=5)
        b = fit_ica(X, 2, seed=5)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.center, b.center)

    def test_unmixing_is_orthogonal(self):
        # W is the unmixing times a whitening map, so it whitens the fit data
        # (W cov(X) W^T = I) exactly when the unmixing is orthogonal.
        X, _ = mixed_uniform_sources(3)
        W = fit_ica(X, 2, seed=2).W
        np.testing.assert_allclose(W @ np.cov(X, rowvar=False, bias=True) @ W.T, np.eye(2), atol=1e-6)

    def test_components_ordered_by_kurtosis(self):
        rng = np.random.default_rng(11)
        # One heavy-tailed and two sub-Gaussian sources.
        S = np.column_stack(
            [rng.laplace(size=3000), rng.uniform(-1, 1, size=3000), rng.uniform(-2, 2, size=3000)]
        )
        X = S @ (rng.normal(size=(3, 3)) + 2 * np.eye(3)).T
        R = fit_ica(X, 3, seed=0).apply(X)
        Rc = R - R.mean(axis=0)
        kurt = (Rc**4).mean(axis=0) / (Rc**2).mean(axis=0) ** 2 - 3.0
        assert np.all(np.diff(kurt) <= 1e-8)

    def test_default_dim(self):
        rng = np.random.default_rng(12)
        assert fit_ica(rng.standard_normal((200, 30)), seed=0).r == ICA_DEFAULT_DIM

    def test_small_pool_reduces_r(self):
        rng = np.random.default_rng(13)
        with pytest.warns(NumericalWarning, match="regular simplex"):
            proj = fit_ica(rng.standard_normal((8, 20)), 10, seed=0)
        assert proj.r == 7
        assert proj.meta["r_reduced"]["used"] == 7


def wide_pool(seed, n, m, rank=None):
    """An anisotropic, off-center pool; of the given rank when ``rank`` is set."""
    rng = np.random.default_rng((21, seed))
    if rank is None:
        return rng.standard_normal((n, m)) * rng.uniform(0.5, 3.0, size=m) + rng.normal(size=m)
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m)) + rng.normal(size=m)


# Pool shapes (n rows, m columns) and the squared matrix the rule decomposes:
# the n x n Gram matrix when m > n, the m x m scatter matrix otherwise.
ROUTE_SHAPES = [((80, 1024), "gram"), ((805, 64), "scatter"), ((80, 64), "scatter"), ((80, 80), "scatter"), ((80, 81), "gram")]
SVD_SHAPES = ROUTE_SHAPES + [((80, 100), "gram"), ((100, 80), "scatter")]


def svd_decompose(Xc, r):
    """Thin-SVD oracle for ``subspace._decompose``: the divisor-n covariance
    eigenvalues s^2 / n, 0 at or below RANK_EPS times the largest, and the
    sign-fixed first r rows of vt."""
    _, s, vt = np.linalg.svd(Xc, full_matrices=False)
    w = s * s / len(Xc)
    return np.where(w > w[0] * RANK_EPS, w, 0.0), flip_signs(vt[:r].T).T


def decomposition_route(monkeypatch, Xc):
    """Which squared matrix of the centered pool ``_decompose`` hands to ``eigh``."""
    seen = []
    eigh = np.linalg.eigh
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "eigh", lambda A: seen.append(A) or eigh(A))
        subspace._decompose(Xc, 10)
    (A,) = seen
    if np.array_equal(A, Xc @ Xc.T):
        return "gram"
    if np.array_equal(A, Xc.T @ Xc):
        return "scatter"
    raise AssertionError(f"eigh of a {A.shape} matrix that is neither squared matrix of the pool")


def ill_conditioned_pool(seed, n, m, scale):
    """An off-center pool of 5 unit-variance columns and m - 5 columns at ``scale``."""
    rng = np.random.default_rng((22, seed))
    return rng.standard_normal((n, m)) * np.r_[np.ones(5), np.full(m - 5, scale)] + rng.normal(size=m)


class TestDecompositionRoutes:
    """The pool decomposition takes sym_eig of the smaller squared matrix;
    the thin SVD is the oracle it must match."""

    @pytest.mark.parametrize("shape,route", ROUTE_SHAPES)
    def test_shape_picks_route(self, monkeypatch, shape, route):
        X = wide_pool(6, *shape)
        assert decomposition_route(monkeypatch, X - X.mean(axis=0)) == route

    @pytest.mark.parametrize("shape,route", ROUTE_SHAPES)
    def test_each_pool_decomposition_is_one_sym_eig(self, monkeypatch, shape, route):
        seen = []
        sym_eig = subspace.sym_eig
        monkeypatch.setattr(subspace, "sym_eig", lambda C: seen.append(C) or sym_eig(C))
        d = PoolDecomposition(wide_pool(6, *shape), 10)
        (C,) = seen
        Xc = d.centered
        np.testing.assert_array_equal(C, Xc @ Xc.T if route == "gram" else Xc.T @ Xc)
        assert C.shape == (min(shape),) * 2

    @pytest.mark.parametrize("route,shape", [(route, shape) for shape, route in SVD_SHAPES])
    def test_eigenvalues_and_distances_match_svd(self, monkeypatch, route, shape):
        X = wide_pool(0, *shape)
        Xc = X - X.mean(axis=0)
        assert decomposition_route(monkeypatch, Xc) == route
        r = 10
        evals, axes = subspace._decompose(Xc, r)
        evals_ref, axes_ref = svd_decompose(Xc, r)
        assert evals.shape == evals_ref.shape and axes.shape == axes_ref.shape == (r, shape[1])
        assert np.count_nonzero(evals) == np.count_nonzero(evals_ref)
        live = evals_ref > 0
        assert np.abs(evals[live] / evals_ref[live] - 1.0).max() <= 1e-9
        Y, Y_ref = Xc @ axes.T, Xc @ axes_ref.T
        D, D_ref = pairwise_sqdist(Y, Y), pairwise_sqdist(Y_ref, Y_ref)
        assert np.abs(D - D_ref).max() <= 1e-9 * D_ref.max()

    def test_wide_whitened_covariance_is_identity(self):
        X = wide_pool(1, 80, 1024)
        Xw, _ = whiten(X, 10)
        np.testing.assert_allclose((Xw.T @ Xw) / len(Xw), np.eye(10), atol=1e-6)
        with pytest.warns(NumericalWarning, match="regular simplex"):
            Xw, _ = whiten(X, 79)
        np.testing.assert_allclose((Xw.T @ Xw) / len(Xw), np.eye(79), atol=1e-6)

    @pytest.mark.parametrize("shape", [(80, 64), (80, 81), (40, 64), (160, 128)])
    def test_ill_conditioned_pool_whitens_or_raises(self, monkeypatch, shape):
        for scale in (1e-2, 1e-3, 1e-4):
            Xw, _ = whiten(ill_conditioned_pool(0, *shape, scale), 10)
            np.testing.assert_allclose((Xw.T @ Xw) / len(Xw), np.eye(10), atol=1e-6)
        X = ill_conditioned_pool(0, *shape, 1e-6)
        with pytest.raises(ValueError, match="rank deficient: requested 10, available 5"):
            whiten(X, 10)
        monkeypatch.setattr(subspace, "_decompose", svd_decompose)
        with pytest.raises(ValueError, match="rank deficient: requested 10, available 5"):
            whiten(X, 10)

    @pytest.mark.parametrize("shape,route", ROUTE_SHAPES)
    def test_shared_decomposition_matches_single_fits(self, shape, route):
        X = wide_pool(2, *shape)
        shared = PoolDecomposition(X, 10)
        for r in (4, 10):
            np.testing.assert_allclose(shared.project("pca", r).W, fit_pca(X, r).W, rtol=0, atol=1e-12)
            np.testing.assert_allclose(shared.project("whiten", r).W, whiten(X, r)[1].W, rtol=1e-12, atol=0)
        with pytest.raises(ValueError, match="holds 10 axes, 11 requested"):
            shared.project("pca", 11)

    @pytest.mark.parametrize("shape,r", [((10, 4), 0), ((10, 4), -1), ((5, 40), -2)])
    def test_a_decomposition_below_one_axis_is_rejected(self, shape, r):
        with pytest.raises(ValueError, match=f"^r must be >= 1, got {r}$"):
            PoolDecomposition(wide_pool(3, *shape), r)

    @pytest.mark.parametrize(
        "fit",
        [lambda X: PoolDecomposition(X, 2).project("pca", 2), lambda X: fit_pca(X, 2), lambda X: whiten(X, 2), lambda X: fit_ica(X, 2)],
        ids=["PoolDecomposition", "fit_pca", "whiten", "fit_ica"],
    )
    def test_a_pool_without_columns_has_no_rank(self, fit):
        with pytest.raises(ValueError, match="^rank deficient: requested 2, available 0$"):
            fit(np.zeros((5, 0)))

    def test_unknown_projection_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown projection 'ica'; choose from pca, whiten"):
            PoolDecomposition(wide_pool(2, 80, 64), 4).project("ica", 4)

    @pytest.mark.parametrize("k", [-20, 20])
    @pytest.mark.parametrize("shape,route", ROUTE_SHAPES)
    def test_a_power_of_two_scale_changes_no_fit(self, shape, route, k):
        # The zero-eigenvalue cut is relative, so the units of the pool
        # decide nothing: scaling by 2^k is exact in every step of the fit.
        X = wide_pool(7, *shape)
        c = 2.0**k
        p, p_c = fit_pca(X, 10), fit_pca(X * c, 10)
        assert np.array_equal(p_c.W, p.W)
        assert np.array_equal(p_c.meta["eigenvalues"], p.meta["eigenvalues"] * c * c)
        (_, w), (_, w_c) = whiten(X, 10), whiten(X * c, 10)
        assert np.array_equal(w_c.W, w.W / c)
        assert np.array_equal(w_c.meta["eigenvalues"], w.meta["eigenvalues"] * c * c)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e4])
    @pytest.mark.parametrize("shape,route", ROUTE_SHAPES)
    def test_rank_deficient_pool_still_raises(self, shape, route, scale):
        # The cut is relative to the largest eigenvalue: at any feature scale
        # the squared matrix's rounding noise counts as zero and the pool's
        # three real directions count.
        X = wide_pool(3, *shape, rank=3) * scale
        with pytest.raises(ValueError, match="rank deficient: requested 4, available 3"):
            fit_pca(X, 4)
        with pytest.raises(ValueError, match="rank deficient: requested 4, available 3"):
            whiten(X, 4)
        assert fit_pca(X, 3).r == 3
        n = shape[0]
        if n < shape[1]:
            # Full rank, so the centered pool spans n - 1: too few rows shrink r, they do not raise.
            Xs = wide_pool(3, *shape) * scale
            with pytest.warns(NumericalWarning, match=f"n = {n} rows to r = {n - 1} = n - 1"):
                Z, proj = whiten(Xs, n)
            assert Z.shape == (n, n - 1) and proj.meta["r_reduced"] == {"requested": n, "used": n - 1}

    @pytest.mark.parametrize("route", ["gram", "scatter"])
    def test_small_pool_reduces_or_raises(self, monkeypatch, route):
        X = wide_pool(4, 4, {"gram": 1024, "scatter": 4}[route])
        assert decomposition_route(monkeypatch, X - X.mean(axis=0)) == route
        p = fit_pca(X, 8)
        assert p.r == 3 and p.meta["r_reduced"] == {"requested": 8, "used": 3}
        with pytest.warns(NumericalWarning, match="n = 4 rows to r = 3 = n - 1"):
            assert PoolDecomposition(X, 8).project("whiten", 8).meta["r_reduced"] == {"requested": 8, "used": 3}
        with pytest.warns(NumericalWarning, match="n = 4 rows to r = 3 = n - 1"):
            _, w = whiten(X, 8)
        assert w.r == 3 and w.meta["r_reduced"] == {"requested": 8, "used": 3}
        # Shrunk to n - 1 = 7, an 8 x 3 pool still spans only 3 directions.
        with pytest.raises(ValueError, match="rank deficient: requested 7, available 3"):
            whiten(wide_pool(5, 8, 3), 10)
        with pytest.raises(ValueError, match="rank deficient: requested 100, available 64"):
            fit_pca(wide_pool(5, 805, 64), 100)
        with pytest.raises(ValueError, match="insufficient samples"):
            fit_pca(X[:1], 2)

    @pytest.mark.filterwarnings("ignore::tafssl.linalg.NumericalWarning")
    @pytest.mark.parametrize("route", ["gram", "scatter"])
    @pytest.mark.parametrize("r", [3, 10])
    def test_every_projection_shrinks_a_small_pool_alike(self, monkeypatch, r, route):
        for n in range(2, r + 3):
            X = wide_pool(8, n, {"gram": 64, "scatter": n}[route])
            assert decomposition_route(monkeypatch, X - X.mean(axis=0)) == route
            Z, white = whiten(X, r)
            fits = [fit_pca(X, r), white, fit_ica(X, r)] + [PoolDecomposition(X, r).project(kind, r) for kind in ("pca", "whiten")]
            reduced = {"requested": r, "used": n - 1} if n <= r else None
            assert [(p.r, p.meta.get("r_reduced")) for p in fits] == [(min(r, n - 1), reduced)] * len(fits)
            assert Z.tobytes() == white.apply(X).tobytes()


class TestSimplexWarning:
    """Whitening n rows to n - 1 dimensions makes them a regular simplex,
    where every distance-based decision is rounding noise: it warns."""

    def test_whitening_to_n_minus_1_warns(self):
        X = np.random.default_rng(0).normal(size=(10, 64))
        with pytest.warns(NumericalWarning, match=r"n = 10 rows to r = 9 = n - 1"):
            Z, _ = whiten(X, 9)
        # Every pairwise squared distance is 2n: the decisions there are noise.
        np.testing.assert_allclose(pairwise_sqdist(Z, Z)[np.triu_indices(10, 1)], 20.0, rtol=1e-12)

    def test_reduced_r_warns(self):
        X = np.random.default_rng(1).normal(size=(10, 64))
        with pytest.warns(NumericalWarning, match=r"n = 10 rows to r = 9"):
            proj = PoolDecomposition(X, 12).project("whiten", 12)
        assert proj.meta["r_reduced"] == {"requested": 12, "used": 9}

    def test_pca_or_fewer_dimensions_do_not_warn(self):
        X = np.random.default_rng(2).normal(size=(10, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            whiten(X, 8)
            PoolDecomposition(X, 9).project("pca", 9)
