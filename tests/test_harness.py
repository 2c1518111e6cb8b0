"""Tests for the harness: episode staging, the run loop and sweeps, each
run's reports, and the CSV a run writes to ``out``."""

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tafssl import cluster, harness
from tafssl.config import SWEEP_VALUES, BenchmarkConfig, MethodPipeline, parse_method
from tafssl.episodes import Episode, EpisodeSpec, FeatureStore, MoGSpec, generate_mog_store, reference_mog_spec, reference_store, sample_episode
from tafssl.harness import EpisodeProjections, evaluate_episode, run_ablation, run_benchmark
from tafssl import linalg
from tafssl.linalg import BlasThreadWarning, blas_threads, set_blas_threads
from tafssl import subspace
from tafssl.classify import build_prototypes, nn_classify, sub
from tafssl.cluster import bkm, msp
from tafssl.report import write_csv
from tafssl.subspace import PoolDecomposition, fit_ica

from stores import noisy_store, separable_store


def constant_store():
    """Every row the same: the sub heads center it to zero rows, which warn."""
    return FeatureStore(classes={c: np.ones((20, 6)) for c in range(6)})


class TestEvaluateEpisode:
    def test_all_methods_run_transductive(self):
        ep = sample_episode(noisy_store(), EpisodeSpec(seed=0))
        for name in ("nn", "sub", "sub-star", "pca-nn", "ica-nn", "pca-bkm", "ica-bkm", "pca-msp", "ica-msp", "bkm", "msp"):
            preds = evaluate_episode(ep, parse_method(name), seed=(0, 0))
            assert preds.shape == (75,)
            assert set(np.unique(preds)) <= set(range(5))

    def test_all_methods_run_semi(self):
        spec = EpisodeSpec(mode="semi", unlabeled=8, distractors=2, seed=1)
        ep = sample_episode(noisy_store(), spec)
        for name in ("nn", "pca-nn", "ica-bkm", "pca-msp", "msp", "bkm"):
            preds = evaluate_episode(ep, parse_method(name), seed=(0, 1))
            assert preds.shape == (75,)

    def test_deterministic(self):
        ep = sample_episode(noisy_store(), EpisodeSpec(seed=3))
        a = evaluate_episode(ep, parse_method("ica-bkm"), seed=(9, 3))
        b = evaluate_episode(ep, parse_method("ica-bkm"), seed=(9, 3))
        assert np.array_equal(a, b)

    def test_full_rank_pca_preserves_nn_decisions(self):
        store = noisy_store()
        for i in range(20):
            ep = sample_episode(store, EpisodeSpec(seed=(5, i)))
            raw = evaluate_episode(ep, parse_method("nn"), seed=(5, i))
            full = evaluate_episode(ep, parse_method("pca-nn", dim=store.m), seed=(5, i))
            assert np.array_equal(raw, full)


class TestSubBaselines:
    """sub / sub-star against a plain numpy reference: center, L2-normalize
    the support rows and the queries, then average the unit support rows
    into prototypes."""

    @staticmethod
    def reference(ep, joint):
        S, Q = ep.support, ep.query
        if joint:
            mu = np.vstack([S, Q]).mean(axis=0)
            S, Q = S - mu, Q - mu
        else:
            S, Q = S - S.mean(axis=0), Q - Q.mean(axis=0)

        def unit(X):
            return X / np.linalg.norm(X, axis=1, keepdims=True)

        S = unit(S)
        classes = np.unique(ep.support_labels)
        protos = np.stack([S[ep.support_labels == c].mean(axis=0) for c in classes])
        sq = ((unit(Q)[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
        return classes[np.argmin(sq, axis=1)]

    @pytest.mark.parametrize("name", ["sub", "sub-star"])
    def test_matches_the_numpy_reference(self, name):
        store = noisy_store()
        for i in range(20):
            ep = sample_episode(store, EpisodeSpec(shots=3, seed=(8, i)))
            preds = evaluate_episode(ep, parse_method(name), seed=(8, i))
            assert np.array_equal(preds, self.reference(ep, name == "sub")), (name, i)

    def test_hand_built_sub_runs_on_the_projected_view(self):
        store = noisy_store()
        for i in range(5):
            ep = sample_episode(store, EpisodeSpec(shots=3, seed=(9, i)))
            pipe = MethodPipeline("pca-sub", "pca", 4, sub)
            S, Q, _ = EpisodeProjections(ep, [pipe]).view(pipe)
            expected = self.reference(replace(ep, support=S, query=Q), True)
            assert np.array_equal(evaluate_episode(ep, pipe, seed=(9, i)), expected)

    def test_sub_centers_on_support_and_queries_not_the_pool(self):
        ep = sample_episode(noisy_store(), EpisodeSpec(shots=3, seed=6))
        ep = replace(ep, unlabeled=ep.query[:10] + 50.0)  # hand-built: the pool holds far-off rows
        preds = evaluate_episode(ep, parse_method("sub"), seed=(0, 6))
        assert np.array_equal(preds, self.reference(ep, True))


@pytest.fixture
def in_process_pools(monkeypatch):
    """Replaces ``concurrent.futures.ProcessPoolExecutor``, which the harness
    imports when it starts a pool, by one that runs its tasks here, starting
    no process; returns the worker count of each pool started."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize):
            return map(fn, iterable)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(harness, "_POOL_STATE", {})
    return started


class TestRunBenchmark:
    def test_separable_store_is_perfect(self):
        cfg = BenchmarkConfig(method="nn", episodes=1, seed=0)
        rep = run_benchmark(cfg, store=separable_store())[0]
        assert rep.accuracy == 100.0
        assert rep.ci95 == 0.0
        assert rep.episodes == 1

    def test_out_is_written_with_the_reports(self, tmp_path):
        out, expected = tmp_path / "run.csv", tmp_path / "expected.csv"
        reports = run_benchmark(BenchmarkConfig(method="nn,pca-msp", episodes=3, seed=4, out=str(out)), store=noisy_store())
        write_csv(expected, [(None, reports)])
        assert out.read_bytes() == expected.read_bytes()

    def test_reports_per_method(self):
        cfg = BenchmarkConfig(method="nn,pca-nn", episodes=5, seed=0)
        reps = run_benchmark(cfg, store=noisy_store())
        assert [r.method for r in reps] == ["nn", "pca-nn"]
        assert all(0.0 <= r.accuracy <= 100.0 for r in reps)

    def test_deterministic_reports(self):
        cfg = BenchmarkConfig(method="ica-msp", episodes=8, seed=7)
        store = noisy_store()
        a = run_benchmark(cfg, store=store)[0]
        b = run_benchmark(cfg, store=store)[0]
        assert a.accuracy == b.accuracy
        assert a.ci95 == b.ci95

    def test_parallel_matches_serial(self):
        store = noisy_store()
        serial = run_benchmark(BenchmarkConfig(method="nn,bkm", episodes=12, seed=1), store=store)
        parallel = run_benchmark(BenchmarkConfig(method="nn,bkm", episodes=12, seed=1, workers=3), store=store)
        for s, p in zip(serial, parallel):
            assert s.accuracy == p.accuracy
            assert s.ci95 == p.ci95

    @pytest.mark.parametrize("episodes,workers,pools", [(3, 8, [3]), (5, 2, [2]), (1, 4, [])])
    def test_a_pool_never_has_more_workers_than_episodes(self, in_process_pools, episodes, workers, pools):
        store = noisy_store()
        got = run_benchmark(BenchmarkConfig(method="nn,bkm", episodes=episodes, seed=1, workers=workers), store=store)
        assert in_process_pools == pools
        serial = run_benchmark(BenchmarkConfig(method="nn,bkm", episodes=episodes, seed=1), store=store)
        assert [(r.per_episode, r.accuracy, r.ci95, r.metadata) for r in got] == [(r.per_episode, r.accuracy, r.ci95, r.metadata) for r in serial]

    def test_per_episode_is_each_episodes_score_in_order(self):
        cfg = BenchmarkConfig(method="nn,pca-msp", episodes=6, seed=3)
        store = noisy_store()
        reports = run_benchmark(cfg, store=store)
        for rep, pipeline in zip(reports, cfg.pipelines()):
            assert rep.episodes == len(rep.per_episode) == 6
            for i, got in enumerate(rep.per_episode):
                ep = sample_episode(store, cfg.episode_spec(i))
                assert got == float((evaluate_episode(ep, pipeline, seed=(cfg.seed, i)) == ep.query_labels).mean())

    def test_semi_mode(self):
        cfg = BenchmarkConfig(method="msp", mode="semi", unlabeled=6, distractors=1, episodes=4, seed=2)
        rep = run_benchmark(cfg, store=noisy_store())[0]
        assert rep.mode == "semi"
        assert 0.0 <= rep.accuracy <= 100.0

    def test_warnings_are_counted_per_method(self, monkeypatch):
        original = cluster.msp

        def warning_msp(*args, **kwargs):
            warnings.warn("degenerate round", UserWarning)
            return original(*args, **kwargs)

        monkeypatch.setattr(cluster, "msp", warning_msp)
        cfg = BenchmarkConfig(method="nn,msp,pca-nn", episodes=3, seed=0)
        reps = run_benchmark(cfg, store=noisy_store())
        assert [r.metadata["warnings"] for r in reps] == [0, 3, 0]

    def test_a_constant_store_ties_every_head_to_the_first_label(self):
        # Every distance ties, so each head predicts label 0.  The sub heads
        # warn twice an episode: once for the zero supports, once for the
        # zero queries.
        store = constant_store()
        cfg = BenchmarkConfig(method="nn,sub,sub-star,bkm,msp", episodes=10, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i in range(cfg.episodes):
                ep = sample_episode(store, cfg.episode_spec(i))
                for pipe in cfg.pipelines():
                    assert (evaluate_episode(ep, pipe, seed=(0, i)) == 0).all(), (pipe.name, i)
        reports = run_benchmark(cfg, store=store)
        assert [r.metadata["warnings"] for r in reports] == [0, 20, 20, 0, 0]

    @pytest.mark.parametrize("queries", [1, 2])
    def test_a_small_pool_shrinks_every_projection(self, queries):
        # 2-way 1-shot pools hold n = 2 + 2 * queries rows; dim = 12 shrinks
        # to n - 1, where whitening warns once per episode (charged to ica-nn).
        cfg = BenchmarkConfig(method="pca-nn,ica-nn,pca-bkm,ica-bkm,pca-msp,ica-msp", ways=2, queries=queries, episodes=30, seed=0)
        store = reference_store()
        shrunk = run_benchmark(replace(cfg, dim=12), store=store)
        exact = run_benchmark(replace(cfg, dim=2 + 2 * queries - 1), store=store)
        for reports in (shrunk, exact):
            assert [r.metadata["warnings"] for r in reports] == [0, 30, 0, 0, 0, 0]
        assert [r.accuracy for r in shrunk] == [r.accuracy for r in exact]


class TestIcaShortcut:
    """``ica-*`` whitens and skips FastICA's unmixing rotation; every head
    must decide exactly as it does on the full ``fit_ica`` subspace."""

    HEADS = ("nn", "bkm", "msp")

    @staticmethod
    def episodes():
        ref = reference_store()
        for i in range(100):
            yield sample_episode(ref, EpisodeSpec(seed=(31, i))), (31, i)
        wide = generate_mog_store(MoGSpec(m=1024, signal_dims=32, sigma_between=2.0), 10, 40, seed=1)
        for i in range(10):
            ep = sample_episode(wide, EpisodeSpec(seed=(32, i)))
            assert ep.query.shape == (75, 1024)
            yield ep, (32, i)

    def shortcut(self, ep, seed):
        pipes = [parse_method(f"ica-{head}") for head in self.HEADS]
        projections = EpisodeProjections(ep, pipes)
        return [evaluate_episode(ep, p, seed=seed, projections=projections) for p in pipes]

    def full(self, ep, seed):
        """``fit_ica`` on the pool, then each head called directly."""
        fit = fit_ica(ep.pool, 10, seed=(*seed, 1))
        S, Q, pool = (fit.apply(X) for X in (ep.support, ep.query, ep.pool))
        y = ep.support_labels
        return [
            nn_classify(Q, build_prototypes(S, y))[0],
            np.unique(y)[np.argmax(bkm(S, y, Q, pool, k=5, seed=(*seed, 2)), axis=1)],
            msp(S, y, Q, pool).predictions,
        ]

    def test_heads_decide_identically_with_and_without_unmixing(self, monkeypatch):
        cases = list(self.episodes())
        with monkeypatch.context() as m:
            m.setattr(subspace, "fit_ica", None)  # the shortcut never reaches FastICA
            m.setattr(harness, "fit_ica", None)
            shortcut = [self.shortcut(ep, seed) for ep, seed in cases]
        for (ep, seed), fast, slow in zip(cases, shortcut, (self.full(ep, seed) for ep, seed in cases)):
            for head, a, b in zip(self.HEADS, fast, slow):
                assert np.array_equal(a, b), f"ica-{head} differs on episode {seed}"


def semi_wide_store():
    """Reference-spec classes with room for 100 unlabeled rows each: 805x64 semi pools."""
    return generate_mog_store(reference_mog_spec(), 20, 120, seed=5)


SEMI_805 = {"mode": "semi", "unlabeled": 100, "distractors": 3}


def copy_sets(ep):
    """The same episode built by hand, with fresh copies of its sets."""
    return Episode(ep.support.copy(), ep.support_labels, ep.query.copy(), ep.query_labels, ep.unlabeled.copy(), ep.unlabeled_labels, ep.class_ids)


class TestEpisodeStaging:
    """The episode's pool is one buffer that the sets are views of; it is
    decomposed and centered once, and each (projection, r) subspace is
    fitted once, its view shared by every pipeline that uses it."""

    def test_views_are_shared_within_an_episode(self):
        ep = sample_episode(noisy_store(), EpisodeSpec(seed=2))
        pipes = {name: parse_method(name) for name in ("nn", "pca-nn", "pca-bkm", "ica-nn", "ica-msp")}
        projections = EpisodeProjections(ep, list(pipes.values()))
        view = {name: projections.view(p) for name, p in pipes.items()}
        assert view["ica-nn"] is view["ica-msp"]
        assert view["pca-nn"] is view["pca-bkm"]
        S, Q, pool = view["nn"]
        assert S is ep.support and Q is ep.query
        assert np.array_equal(pool, np.vstack([ep.support, ep.query]))
        assert [X.shape[1] for X in view["pca-nn"] + view["ica-nn"]] == [4] * 3 + [10] * 3
        np.testing.assert_allclose(np.cov(view["ica-nn"][2], rowvar=False, bias=True), np.eye(10), atol=1e-6)  # whitened pool

    @pytest.mark.parametrize("mode", ["transductive", "semi"])
    def test_sets_are_views_of_one_pool_buffer(self, mode):
        spec = EpisodeSpec(seed=4, **(SEMI_805 if mode == "semi" else {}))
        ep = sample_episode(semi_wide_store(), spec)
        assert ep.pool.flags.c_contiguous and np.shares_memory(ep.pool, ep.support)
        rest = ep.unlabeled if mode == "semi" else ep.query
        assert np.shares_memory(ep.pool, rest) and np.array_equal(ep.pool, np.vstack([ep.support, rest]))
        assert np.shares_memory(ep.pool, ep.query) == (mode == "transductive")

    def test_projections_make_no_pool_copy(self):
        ep = sample_episode(noisy_store(), EpisodeSpec(seed=2))
        projections = EpisodeProjections(ep, [parse_method("nn"), parse_method("pca-nn")])
        assert projections.view(parse_method("nn"))[2] is ep.pool
        projections.view(parse_method("pca-nn"))
        assert all(np.shares_memory(X, projections._decomposition.centered) for X in projections._centered)

    @pytest.mark.parametrize(
        "method,settings",
        [
            ("nn,pca-nn,pca-bkm,ica-bkm", {}),
            ("nn,pca-nn,ica-nn,ica-msp", {}),
            ("bkm,msp,pca-bkm,pca-msp", {"mode": "semi", "unlabeled": 6, "distractors": 1}),
        ],
    )
    def test_one_decomposition_per_episode(self, monkeypatch, method, settings):
        built = []

        class Counted(PoolDecomposition):
            def __init__(self, X, r):
                built.append(X.shape)
                super().__init__(X, r)

        monkeypatch.setattr(harness, "PoolDecomposition", Counted)
        run_benchmark(BenchmarkConfig(method=method, episodes=4, seed=0, **settings), store=noisy_store())
        assert len(built) == 4

    @pytest.mark.parametrize(
        "store,spec",
        [
            (reference_store, {}),  # 80x64
            (lambda: generate_mog_store(MoGSpec(m=1024, signal_dims=32, sigma_between=2.0), 10, 40, seed=1), {}),
            (semi_wide_store, SEMI_805),  # 805x64 pool, separate queries
        ],
        ids=["80x64", "80x1024", "805x64-semi"],
    )
    def test_staged_views_equal_applied_projections(self, store, spec):
        store = store()
        pipes = [parse_method(name) for name in ("pca-nn", "ica-nn", "ica-bkm")]
        for i in range(3):
            ep = sample_episode(store, EpisodeSpec(seed=(8, i), **spec))
            projections = EpisodeProjections(ep, pipes)
            pool = np.vstack([ep.support, ep.unlabeled if spec else ep.query])
            decomposition = PoolDecomposition(pool, 10)
            for fit, pipe in ((decomposition.project("pca", 4), pipes[0]), (decomposition.project("whiten", 10), pipes[1])):
                for got, X in zip(projections.view(pipe), (ep.support, ep.query, pool)):
                    assert np.array_equal(got, fit.apply(X))

    def test_hand_built_and_replaced_episodes_get_their_own_pool(self):
        rng = np.random.default_rng(0)
        S, Q, U = rng.normal(size=(4, 6)), rng.normal(size=(8, 6)), rng.normal(size=(5, 6))
        labels = np.array([0, 0, 1, 1])
        transductive = Episode(S, labels, Q, np.zeros(8, int), np.empty((0, 6)), np.empty(0, int), [0, 1])
        semi = replace(transductive, unlabeled=U, unlabeled_labels=np.zeros(5, int))
        assert np.array_equal(transductive.pool, np.vstack([S, Q]))
        assert np.array_equal(semi.pool, np.vstack([S, U]))
        sampled = sample_episode(noisy_store(), EpisodeSpec(seed=2))
        for changed in ({"support": sampled.support + 1.0}, {"query": sampled.query[:10]}):
            moved = replace(sampled, **changed)
            assert not np.shares_memory(moved.pool, sampled.pool)
            assert np.array_equal(moved.pool, np.vstack([moved.support, moved.query]))
            for pipe in (parse_method("pca-nn"), parse_method("ica-msp")):
                assert np.array_equal(evaluate_episode(moved, pipe, seed=(0, 2)), evaluate_episode(copy_sets(moved), pipe, seed=(0, 2)))


def gaussian_episode(rng, means, k_shot, queries, unlabeled, ids=None):
    """An episode of unit-variance Gaussian classes, one per row of
    ``means``, labelled by ``ids`` (default 0, 1, ...).  Each class gets
    ``k_shot`` support, ``queries`` query and ``unlabeled`` pool rows, whose
    noise ``rng`` draws in that order."""
    ids = np.arange(len(means)) if ids is None else ids

    def draw(per_class):
        index = np.repeat(np.arange(len(ids)), per_class)
        return means[index] + rng.normal(size=(index.size, means.shape[1])), ids[index]

    return Episode(*draw(k_shot), *draw(queries), *draw(unlabeled), ids.tolist())


def head_pipelines():
    """Every head on the raw features."""
    return [parse_method(name) for name in ("nn", "bkm", "msp", "sub", "sub-star")]


class TestHeadInvariance:
    """The property behind ``ica-*`` whitening: every head decides the same
    after the whole episode (support, queries and pool) is rotated by an
    orthogonal matrix and translated."""

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(0, 10**6),
        st.integers(2, 5),
        st.integers(1, 3),
        st.integers(1, 8),
        st.integers(2, 12),
        st.integers(0, 4),
    )
    def test_decisions_survive_rotation_and_translation(self, seed, n_way, k_shot, queries, m, unlabeled):
        rng = np.random.default_rng(seed)
        ep = gaussian_episode(rng, rng.normal(0.0, 2.0, size=(n_way, m)), k_shot, queries, unlabeled)
        rotation, _ = np.linalg.qr(rng.normal(size=(m, m)))
        shift = rng.normal(0.0, 3.0, size=m)
        moved = replace(
            ep,
            support=ep.support @ rotation + shift,
            query=ep.query @ rotation + shift,
            unlabeled=ep.unlabeled @ rotation + shift,
        )
        for pipe in head_pipelines():
            before = evaluate_episode(ep, pipe, seed=(seed, 0))
            after = evaluate_episode(moved, pipe, seed=(seed, 0))
            assert np.array_equal(before, after), (pipe.name, pipe.head)

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(0, 10**6),
        st.integers(2, 5),
        st.integers(1, 3),
        st.integers(1, 8),
        st.integers(2, 12),
        st.integers(0, 4),
        st.integers(1, 12),
        st.sampled_from([-20, 20]),
    )
    def test_scale_free_methods_decide_the_same_at_any_scale(self, seed, n_way, k_shot, queries, m, unlabeled, dim, k):
        # Scaling the whole episode by 2^k is exact, and no rank decision
        # reads the units.  Left out: bkm, msp, pca-bkm and pca-msp, whose
        # temperature-1 softmax reads distances in feature units.
        rng = np.random.default_rng(seed)
        ep = gaussian_episode(rng, rng.normal(0.0, 2.0, size=(n_way, m)), k_shot, queries, unlabeled)
        c = 2.0**k
        scaled = replace(ep, support=ep.support * c, query=ep.query * c, unlabeled=ep.unlabeled * c)
        r = min(dim, m, ep.pool.shape[0] - 2)  # below the simplex, as in TestQueryPermutation
        for name in ("nn", "sub", "sub-star", "pca-nn", "ica-nn", "ica-bkm", "ica-msp"):
            pipe = parse_method(name, dim=r)
            before = evaluate_episode(ep, pipe, seed=(seed, 0))
            after = evaluate_episode(scaled, pipe, seed=(seed, 0))
            assert np.array_equal(before, after), name


class TestQueryPermutation:
    """Predictions of the ``nn`` and cluster methods permute with the
    queries.  The cluster heads (``bkm`` and ``msp``, raw and projected) are
    left out only when the queries are in the pool: MSP's top-K confidence
    ties, common on raw features, and the k-means seed row both go by pool
    index."""

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(0, 10**6),
        st.integers(2, 5),
        st.integers(1, 3),
        st.integers(1, 8),
        st.integers(2, 12),
        st.integers(0, 4),
        st.integers(1, 12),
    )
    def test_predictions_permute_with_the_queries(self, seed, n_way, k_shot, queries, m, unlabeled, dim):
        rng = np.random.default_rng(seed)
        ep = gaussian_episode(rng, rng.normal(0.0, 2.0, size=(n_way, m)), k_shot, queries, unlabeled)
        order = rng.permutation(ep.query.shape[0])
        permuted = replace(ep, query=ep.query[order], query_labels=ep.query_labels[order])
        # Whitened to its full rank, n - 1, a pool of n rows is a regular
        # simplex on which every decision is a tie; stay below it.
        r = min(dim, m, ep.pool.shape[0] - 2)
        names = ["nn", "pca-nn", "ica-nn"]
        if unlabeled:  # the pool excludes the queries
            names += ["bkm", "msp", "pca-bkm", "pca-msp", "ica-bkm", "ica-msp"]
        for name in names:
            pipe = parse_method(name, dim=r)
            before = evaluate_episode(ep, pipe, seed=(seed, 0))
            after = evaluate_episode(permuted, pipe, seed=(seed, 0))
            assert np.array_equal(after, before[order]), name


class TestClassRelabelling:
    """Every head's decisions follow any relabelling of the class ids: the
    class-keyed sorts and tables inside the heads carry no label order."""

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(0, 10**6),
        st.integers(2, 5),
        st.integers(1, 3),
        st.integers(1, 8),
        st.integers(2, 12),
        st.integers(0, 4),
    )
    def test_predictions_permute_with_the_labels(self, seed, n_way, k_shot, queries, m, unlabeled):
        rng = np.random.default_rng(seed)
        means = rng.normal(0.0, 2.0, size=(n_way, m))
        ids = np.sort(rng.choice(100, size=n_way, replace=False))
        relabel = dict(zip(ids.tolist(), rng.permutation(ids).tolist()))
        ep = gaussian_episode(rng, means, k_shot, queries, unlabeled, ids)
        relabelled = replace(ep, support_labels=np.array([relabel[c] for c in ep.support_labels.tolist()]))
        for pipe in head_pipelines():
            before = evaluate_episode(ep, pipe, seed=(seed, 0))
            after = evaluate_episode(relabelled, pipe, seed=(seed, 0))
            assert np.array_equal(after, [relabel[c] for c in before.tolist()]), (pipe.name, pipe.head)


@pytest.fixture
def two_blas_threads():
    """Start the test at two BLAS threads, so a pin to one shows; restore after."""
    if blas_threads() is None:
        pytest.skip("no controllable OpenBLAS")
    original = set_blas_threads(2)
    yield 2
    set_blas_threads(original)


class TestBlasThreads:
    """The episode loop runs on one BLAS thread and leaves the count as found."""

    def test_loop_runs_on_one_thread_and_restores(self, monkeypatch, two_blas_threads):
        seen = []
        original = harness.evaluate_episode

        def recording(*args, **kwargs):
            seen.append(blas_threads())
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "evaluate_episode", recording)
        run_benchmark(BenchmarkConfig(method="nn,msp", episodes=3, seed=0), store=noisy_store())
        assert seen and set(seen) == {1}
        assert blas_threads() == two_blas_threads

    def test_restores_after_an_episode_raises(self, monkeypatch, two_blas_threads):
        def failing(*args, **kwargs):
            raise RuntimeError("episode failed")

        monkeypatch.setattr(harness, "evaluate_episode", failing)
        with pytest.raises(RuntimeError, match="episode failed"):
            run_benchmark(BenchmarkConfig(method="nn", episodes=3, seed=0), store=noisy_store())
        assert blas_threads() == two_blas_threads

    def test_pool_worker_runs_on_one_thread(self, two_blas_threads):
        with ProcessPoolExecutor(max_workers=1, initializer=harness._pool_init, initargs=(noisy_store(),)) as pool:
            assert pool.submit(blas_threads).result() == 1

    def test_no_controllable_blas_warns_once_and_changes_nothing(self, monkeypatch):
        cfg = BenchmarkConfig(method="nn,bkm,msp", episodes=4, seed=3)
        expected = run_benchmark(cfg, store=noisy_store())
        monkeypatch.setattr(linalg, "_find_blas", lambda: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run_benchmark(cfg, store=noisy_store())
        assert [w.category for w in caught] == [BlasThreadWarning]
        assert [(r.accuracy, r.ci95, r.metadata) for r in got] == [(r.accuracy, r.ci95, r.metadata) for r in expected]


class TestSweeps:
    def test_queries_sweep(self):
        cfg = BenchmarkConfig(method="nn", episodes=3, seed=0)
        table = run_ablation(replace(cfg, sweep="queries"), store=noisy_store())
        assert [v for v, _ in table] == SWEEP_VALUES["queries"]
        assert all(len(reps) == 1 for _, reps in table)

    def test_dim_sweep_requires_projection(self):
        cfg = BenchmarkConfig(method="nn", episodes=2, seed=0)
        with pytest.raises(ValueError, match="projection"):
            run_ablation(replace(cfg, sweep="dim"))

    def test_noise_sweep_requires_semi(self):
        cfg = BenchmarkConfig(method="nn", episodes=2, seed=0)
        with pytest.raises(ValueError, match="semi"):
            run_ablation(replace(cfg, sweep="noise"))

    def test_unbalance_sweep(self):
        # 1 + 15 + 50 rows would exceed the store's 60 per class.
        cfg = BenchmarkConfig(method="nn", queries=5, episodes=3, seed=0)
        table = run_ablation(replace(cfg, sweep="unbalance"), store=noisy_store())
        assert [v for v, _ in table] == SWEEP_VALUES["unbalance"]

    def test_unknown_sweep(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            run_ablation(BenchmarkConfig(sweep="shots"))

    def test_run_benchmark_rejects_a_sweep(self):
        with pytest.raises(ValueError, match="pass the queries sweep to run_ablation"):
            run_benchmark(BenchmarkConfig(method="nn", episodes=2, sweep="queries"), store=noisy_store())

    def test_a_sweep_starts_one_pool(self, in_process_pools):
        cfg = BenchmarkConfig(method="nn,pca-bkm", episodes=4, seed=1, sweep="queries")
        store = noisy_store()
        got = run_ablation(replace(cfg, workers=2), store=store)
        assert in_process_pools == [2]
        serial = run_ablation(cfg, store=store)
        assert [v for v, _ in got] == [v for v, _ in serial] == SWEEP_VALUES["queries"]
        for (_, reports), (_, expected) in zip(got, serial):
            assert [(r.accuracy, r.ci95, r.metadata) for r in reports] == [(r.accuracy, r.ci95, r.metadata) for r in expected]

    def test_no_sweep_runs_the_config_itself(self):
        cfg = BenchmarkConfig(method="nn,pca-bkm", episodes=3, seed=2)
        [(value, reports)] = run_ablation(cfg, store=noisy_store())
        expected = run_benchmark(cfg, store=noisy_store())
        assert value is None
        # Equal but for the wall-clock timing.
        assert [replace(r, seconds_per_episode=0.0) for r in reports] == [replace(r, seconds_per_episode=0.0) for r in expected]

    def test_a_sweep_writes_its_table_to_out(self, tmp_path):
        out, expected = tmp_path / "sweep.csv", tmp_path / "expected.csv"
        table = run_ablation(BenchmarkConfig(method="nn,pca-nn", episodes=2, seed=0, sweep="queries", out=str(out)), store=noisy_store())
        write_csv(expected, table, "queries")
        assert out.read_bytes() == expected.read_bytes()


class TestLabelHygiene:
    def test_inference_never_sees_query_labels(self):
        # The inference path receives the episode minus its query labels;
        # poisoning the labels must not change predictions.
        store = noisy_store()
        ep = sample_episode(store, EpisodeSpec(seed=11))
        preds = evaluate_episode(ep, parse_method("ica-msp"), seed=(0, 11))
        poisoned = ep.__class__(
            support=ep.support,
            support_labels=ep.support_labels,
            query=ep.query,
            query_labels=np.zeros_like(ep.query_labels),
            unlabeled=ep.unlabeled,
            unlabeled_labels=ep.unlabeled_labels,
            class_ids=ep.class_ids,
        )
        preds2 = evaluate_episode(poisoned, parse_method("ica-msp"), seed=(0, 11))
        assert np.array_equal(preds, preds2)
