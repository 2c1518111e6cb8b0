"""Tests for pipeline assembly, the benchmark loop, sweeps, and CSV output."""

import json
import pickle
import re
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tafssl import cluster, config, harness
from tafssl.config import BenchmarkConfig, MethodPipeline, parse_config_file, parse_method
from tafssl.episodes import Episode, EpisodeSpec, FeatureStore, MoGSpec, generate_mog_store, reference_mog_spec, reference_store, sample_episode
from tafssl.harness import (
    EpisodeProjections,
    evaluate_episode,
    format_reports,
    load_store,
    run_ablation,
    run_benchmark,
    write_csv,
)
from tafssl import linalg
from tafssl.linalg import BlasThreadWarning, blas_threads, covariance, set_blas_threads
from tafssl import subspace
from tafssl.classify import build_prototypes, l2_normalize_rows, nn, nn_classify, sub, sub_star
from tafssl.cluster import bkm, bkm_predict, msp, msp_predict
from tafssl.features_io import save_features
from tafssl.subspace import PoolDecomposition, fit_ica


def separable_store(n_classes=8, per_class=40, m=6, spread=60.0):
    """Classes so far apart that every classifier should be perfect."""
    rng = np.random.default_rng(0)
    classes = {}
    for c in range(n_classes):
        center = np.zeros(m)
        center[c % m] = spread * (1 + c)
        classes[c] = rng.normal(center, 0.5, size=(per_class, m))
    return FeatureStore(classes=classes)


def noisy_store():
    return generate_mog_store(MoGSpec(m=12, signal_dims=4), 10, 60, seed=4)


class TestParseMethod:
    @pytest.mark.parametrize(
        "name,projection,head",
        [
            ("nn", "none", nn),
            ("sub", "none", sub),
            ("sub-star", "none", sub_star),
            ("pca-nn", "pca", nn),
            ("ica-bkm", "whiten", bkm_predict),
            ("pca-msp", "pca", msp_predict),
            ("bkm", "none", bkm_predict),
            ("msp", "none", msp_predict),
        ],
        ids=lambda v: v.__name__.removesuffix("_predict") if callable(v) else None,
    )
    def test_names(self, name, projection, head):
        p = parse_method(name)
        assert p.projection == projection
        if head in (sub, sub_star):
            assert (p.head.func, p.head.keywords) == (head, {"normalize_first": True})
        else:
            assert p.head is head

    def test_every_pipeline_survives_a_pickle_round_trip(self):
        # Pool workers receive the pipelines pickled.
        ep = sample_episode(noisy_store(), EpisodeSpec(seed=4))
        for name in config.METHODS:
            for normalize_first in (True, False):
                pipe = parse_method(name, sub_normalize_first=normalize_first)
                copy = pickle.loads(pickle.dumps(pipe))
                assert np.array_equal(evaluate_episode(ep, copy, seed=(0, 4)), evaluate_episode(ep, pipe, seed=(0, 4))), (name, normalize_first)

    def test_default_dims(self):
        assert parse_method("pca-nn").r == 4
        assert parse_method("ica-msp").r == 10
        assert parse_method("nn").r is None

    def test_dim_override(self):
        assert parse_method("ica-nn", dim=7).r == 7

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            parse_method("svm")

    def test_default_hyperparams(self):
        """The harness runs bkm with k=5 and msp with threshold 0.3 and 4 iterations."""
        store = noisy_store()
        pca_bkm, ica_msp = parse_method("pca-bkm"), parse_method("ica-msp")
        for i in range(30):  # msp's threshold decides differently on some of them
            ep = sample_episode(store, EpisodeSpec(seed=(12, i)))
            y = ep.support_labels
            S, Q, pool = EpisodeProjections(ep, [pca_bkm]).view(pca_bkm)
            expected = np.unique(y)[np.argmax(bkm(S, y, Q, pool, k=5, seed=(12, i, 2)), axis=1)]
            assert np.array_equal(evaluate_episode(ep, pca_bkm, seed=(12, i)), expected)
            S, Q, pool = EpisodeProjections(ep, [ica_msp]).view(ica_msp)
            expected = msp(S, y, Q, pool, threshold=0.3, iterations=4).predictions
            assert np.array_equal(evaluate_episode(ep, ica_msp, seed=(12, i)), expected)

    def test_default_episode_count(self):
        assert BenchmarkConfig().episodes == 10000


class TestConfigValidation:
    def test_sub_requires_transductive(self):
        cfg = BenchmarkConfig(method="sub", mode="semi", unlabeled=5)
        with pytest.raises(ValueError, match="transductive"):
            cfg.pipelines()

    def test_semi_requires_unlabeled(self):
        cfg = BenchmarkConfig(method="nn", mode="semi", unlabeled=0)
        with pytest.raises(ValueError, match="unlabeled"):
            cfg.pipelines()

    def test_transductive_rejects_distractors(self):
        cfg = BenchmarkConfig(method="nn", distractors=2)
        with pytest.raises(ValueError, match="transductive"):
            cfg.pipelines()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            BenchmarkConfig(method="nn", workers=workers).pipelines()

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_checked_before_store_loads(self, tmp_path, dim):
        cfg = BenchmarkConfig(method="nn,pca-nn", dim=dim, features=str(tmp_path / "missing.feats"))
        with pytest.raises(ValueError, match="dim must be >= 1"):
            run_benchmark(cfg)

    def test_negative_seed_checked_before_store_loads(self, tmp_path):
        cfg = BenchmarkConfig(method="nn", seed=-1, features=str(tmp_path / "missing.feats"))
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_benchmark(cfg)

    def test_episode_count_checked_before_store_loads(self, tmp_path):
        cfg = BenchmarkConfig(method="nn", episodes=0, features=str(tmp_path / "missing.feats"))
        with pytest.raises(ValueError, match="episodes"):
            run_benchmark(cfg)

    def test_invalid_combination_fails_before_running(self):
        cfg = BenchmarkConfig(method="sub", mode="semi", unlabeled=5, episodes=10)
        with pytest.raises(ValueError):
            run_benchmark(cfg, store=separable_store())

    def test_repeated_method_checked_before_store_loads(self, tmp_path):
        cfg = BenchmarkConfig(method="nn,pca-nn,nn", features=str(tmp_path / "missing.feats"))
        with pytest.raises(ValueError, match="method 'nn' is given more than once"):
            run_benchmark(cfg)

    def test_protocol_fields_are_the_episode_spec_fields(self):
        spec_defaults = {f.name: f.default for f in fields(EpisodeSpec)}
        config_defaults = {f.name: f.default for f in fields(BenchmarkConfig)}
        assert list(config.PROTOCOL_FIELDS) == [name for name in spec_defaults if name not in ("mode", "seed")]
        for name in config.PROTOCOL_FIELDS:
            assert spec_defaults[name] == config_defaults[name], name

    @pytest.mark.parametrize(
        "settings,message",
        [
            ({"sweep": "shots"}, "unknown sweep 'shots'; choose from queries, noise, dim, unbalance"),
            ({"sweep": "noise"}, "the noise sweep varies distractor classes and requires --mode semi"),
            ({"sweep": "dim", "method": "nn,pca-nn,msp"}, "the dim sweep needs a projection method; nn, msp has none"),
        ],
        ids=["unknown", "noise", "dim"],
    )
    def test_sweep_rules_are_checked_with_the_other_settings(self, settings, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BenchmarkConfig(**settings).pipelines()


def short_class_store():
    """A mixture store whose class 3 has 10 rows; the others have 60."""
    classes = dict(noisy_store().classes)
    classes[3] = classes[3][:10]
    return FeatureStore(classes=classes)


ROWS = "shots + queries + unbalanced_r + unlabeled"
# Runs the store cannot supply: the store, the settings, and the one error.
STORE_OVERFLOWS = [
    (reference_store, {"ways": 30}, "ways + distractors = 30, but the store has 20 classes"),
    (reference_store, {"mode": "semi", "unlabeled": 100}, f"{ROWS} = 116, but the store's smallest class has 100 samples"),
    (reference_store, {"mode": "semi", "unlabeled": 100, "workers": 2}, f"{ROWS} = 116, but the store's smallest class has 100 samples"),
    (reference_store, {"queries": 60, "unbalanced_r": 60}, f"{ROWS} = 121, but the store's smallest class has 100 samples"),
    (reference_store, {"mode": "semi", "unlabeled": 60, "sweep": "queries"}, f"{ROWS} = 111, but the store's smallest class has 100 samples"),
    (short_class_store, {}, f"{ROWS} = 16, but the store's smallest class has 10 samples"),
]


class TestStoreCheck:
    @pytest.mark.parametrize(
        "make_store,settings,message",
        STORE_OVERFLOWS,
        ids=["ways", "semi-unlabeled", "semi-unlabeled-workers-2", "unbalanced", "queries-sweep", "short-class"],
    )
    def test_a_run_the_store_cannot_supply_fails_before_episode_0(self, monkeypatch, make_store, settings, message):
        def no_episode(*args):
            raise AssertionError("an episode was sampled")

        benchmarks = []
        real_run_benchmark = harness.run_benchmark
        monkeypatch.setattr(harness, "sample_episode", no_episode)
        monkeypatch.setattr(harness, "run_benchmark", lambda cfg, store=None: benchmarks.append(cfg) or real_run_benchmark(cfg, store))
        cfg = BenchmarkConfig(method="nn", episodes=2, **settings)
        with pytest.raises(ValueError, match=re.escape(message)):
            (run_ablation if cfg.sweep else run_benchmark)(cfg, store=make_store())
        assert benchmarks == []  # a sweep runs no value at all

    @pytest.mark.parametrize("settings", [{"queries": 99}, {"ways": 20}, {"queries": 49, "unbalanced_r": 50}], ids=["queries", "ways", "unbalanced"])
    def test_a_run_the_store_can_just_supply_runs(self, settings):
        reports = run_benchmark(BenchmarkConfig(method="nn", episodes=2, **settings), store=reference_store())
        assert [r.episodes for r in reports] == [2]


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
    """sub / sub-star against a plain numpy reference, under both settings of
    ``sub_normalize_first``: L2-normalize the support rows before averaging
    them into prototypes, or normalize the averaged prototypes."""

    @staticmethod
    def reference(ep, joint, normalize_first):
        S, Q = ep.support, ep.query
        if joint:
            mu = np.vstack([S, Q]).mean(axis=0)
            S, Q = S - mu, Q - mu
        else:
            S, Q = S - S.mean(axis=0), Q - Q.mean(axis=0)

        def unit(X):
            return X / np.linalg.norm(X, axis=1, keepdims=True)

        if normalize_first:
            S = unit(S)
        classes = np.unique(ep.support_labels)
        protos = np.stack([S[ep.support_labels == c].mean(axis=0) for c in classes])
        if not normalize_first:
            protos = unit(protos)
        sq = ((unit(Q)[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
        return classes[np.argmin(sq, axis=1)]

    @pytest.mark.parametrize("name", ["sub", "sub-star"])
    def test_matches_reference_under_both_settings(self, name):
        store = noisy_store()
        disagreements = 0
        for i in range(20):
            ep = sample_episode(store, EpisodeSpec(shots=3, seed=(8, i)))
            preds = {}
            for normalize_first in (True, False):
                pipe = parse_method(name, sub_normalize_first=normalize_first)
                preds[normalize_first] = evaluate_episode(ep, pipe, seed=(8, i))
                expected = self.reference(ep, name == "sub", normalize_first)
                assert np.array_equal(preds[normalize_first], expected), (name, normalize_first, i)
            disagreements += int((preds[True] != preds[False]).sum())
        assert disagreements > 0  # the two settings are different classifiers

    def test_hand_built_sub_runs_on_the_projected_view(self):
        store = noisy_store()
        for i in range(5):
            ep = sample_episode(store, EpisodeSpec(shots=3, seed=(9, i)))
            pipe = MethodPipeline("pca-sub", "pca", 4, sub)
            S, Q, _ = EpisodeProjections(ep, [pipe]).view(pipe)
            expected = self.reference(replace(ep, support=S, query=Q), True, True)
            assert np.array_equal(evaluate_episode(ep, pipe, seed=(9, i)), expected)

    def test_sub_centers_on_support_and_queries_not_the_pool(self):
        ep = sample_episode(noisy_store(), EpisodeSpec(shots=3, seed=6))
        ep = replace(ep, unlabeled=ep.query[:10] + 50.0)  # hand-built: the pool holds far-off rows
        for normalize_first in (True, False):
            preds = evaluate_episode(ep, parse_method("sub", sub_normalize_first=normalize_first), seed=(0, 6))
            assert np.array_equal(preds, self.reference(ep, True, normalize_first))


class TestRunBenchmark:
    def test_separable_store_is_perfect(self):
        cfg = BenchmarkConfig(method="nn", episodes=1, seed=0)
        rep = run_benchmark(cfg, store=separable_store())[0]
        assert rep.accuracy == 100.0
        assert rep.ci95 == 0.0
        assert rep.episodes == 1

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
    def test_a_pool_never_has_more_workers_than_episodes(self, monkeypatch, episodes, workers, pools):
        started = []

        class InProcessPool:
            """Records its worker count and runs the tasks here, starting no process."""

            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize):
                return map(fn, iterable)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness, "_POOL_STATE", {})
        store = noisy_store()
        got = run_benchmark(BenchmarkConfig(method="nn,bkm", episodes=episodes, seed=1, workers=workers), store=store)
        assert started == pools
        serial = run_benchmark(BenchmarkConfig(method="nn,bkm", episodes=episodes, seed=1), store=store)
        assert [(r.accuracy, r.ci95, r.metadata) for r in got] == [(r.accuracy, r.ci95, r.metadata) for r in serial]

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
        np.testing.assert_allclose(covariance(view["ica-nn"][2]), np.eye(10), atol=1e-6)  # whitened pool

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


def head_pipelines():
    """Every head on the raw features, the sub heads under both ``sub_normalize_first`` settings."""
    return [parse_method(name) for name in ("nn", "bkm", "msp")] + [
        parse_method(name, sub_normalize_first=first) for name in ("sub", "sub-star") for first in (True, False)
    ]


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
        means = rng.normal(0.0, 2.0, size=(n_way, m))

        def draw(per_class):
            labels = np.repeat(np.arange(n_way), per_class)
            return means[labels] + rng.normal(size=(labels.size, m)), labels

        support, support_labels = draw(k_shot)
        query, query_labels = draw(queries)
        pool_extra, pool_labels = draw(unlabeled)
        ep = Episode(support, support_labels, query, query_labels, pool_extra, pool_labels, list(range(n_way)))
        rotation, _ = np.linalg.qr(rng.normal(size=(m, m)))
        shift = rng.normal(0.0, 3.0, size=m)
        moved = replace(
            ep,
            support=support @ rotation + shift,
            query=query @ rotation + shift,
            unlabeled=pool_extra @ rotation + shift,
        )
        for pipe in head_pipelines():
            before = evaluate_episode(ep, pipe, seed=(seed, 0))
            after = evaluate_episode(moved, pipe, seed=(seed, 0))
            assert np.array_equal(before, after), (pipe.name, pipe.head)


class TestQueryPermutation:
    """Predictions of ``nn``, ``pca-nn`` and ``ica-nn`` permute with the
    queries.  ``msp`` and ``bkm`` are left out: MSP's top-K confidence ties,
    common on raw features, and the k-means seed row both go by pool index."""

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
        means = rng.normal(0.0, 2.0, size=(n_way, m))

        def draw(per_class):
            labels = np.repeat(np.arange(n_way), per_class)
            return means[labels] + rng.normal(size=(labels.size, m)), labels

        support, support_labels = draw(k_shot)
        query, query_labels = draw(queries)
        pool_extra, pool_labels = draw(unlabeled)
        ep = Episode(support, support_labels, query, query_labels, pool_extra, pool_labels, list(range(n_way)))
        order = rng.permutation(query.shape[0])
        permuted = replace(ep, query=query[order], query_labels=query_labels[order])
        # Whitened to its full rank, n - 1, a pool of n rows is a regular
        # simplex on which every decision is a tie; stay below it.
        r = min(dim, m, ep.pool.shape[0] - 2)
        for name in ("nn", "pca-nn", "ica-nn"):
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

        def draw(per_class):
            index = np.repeat(np.arange(n_way), per_class)
            return means[index] + rng.normal(size=(index.size, m)), ids[index]

        support, support_labels = draw(k_shot)
        query, query_labels = draw(queries)
        pool_extra, pool_labels = draw(unlabeled)
        ep = Episode(support, support_labels, query, query_labels, pool_extra, pool_labels, ids.tolist())
        relabelled = replace(ep, support_labels=np.array([relabel[c] for c in support_labels.tolist()]))
        for pipe in head_pipelines():
            before = evaluate_episode(ep, pipe, seed=(seed, 0))
            after = evaluate_episode(relabelled, pipe, seed=(seed, 0))
            assert np.array_equal(after, [relabel[c] for c in before.tolist()]), (pipe.name, pipe.head)


# harness._infer and evaluate_episode as they stood before each head became
# one library function, with the helpers they called.  Kept verbatim as the
# oracle the heads must match bit for bit, warnings included.
_SUB_HEADS = ("sub", "sub_star")


def _derive_seed(seed, salt: int):
    if isinstance(seed, tuple):
        return (*seed, salt)
    return (seed, salt)


def _parent_infer(S, y_s, Q, pool, inference: str, sub_normalize_first: bool, seed) -> np.ndarray:
    """The pipeline's head: query predictions from S, its labels, Q and the pool.
    ``sub`` centers S and Q on their joint mean, ``sub_star`` each on its own;
    both L2-normalize Q, and S (``sub_normalize_first``) or the prototypes, then run ``nn``."""
    head = inference
    if head == "bkm":
        posterior = bkm(S, y_s, Q, pool, seed=_derive_seed(seed, 2))
        return np.unique(y_s)[np.argmax(posterior, axis=1)]
    if head == "msp":
        return msp(S, y_s, Q, pool).predictions
    if head in _SUB_HEADS:
        if head == "sub":
            mu = np.vstack([S, Q]).mean(axis=0)
            S, Q = S - mu, Q - mu
        else:
            S, Q = S - S.mean(axis=0), Q - Q.mean(axis=0)
        if sub_normalize_first:
            S = l2_normalize_rows(S)
        Q = l2_normalize_rows(Q)
    elif head != "nn":
        raise ValueError(f"unknown inference {head!r}")
    protos = build_prototypes(S, y_s)
    if head in _SUB_HEADS and not sub_normalize_first:
        protos = replace(protos, vectors=l2_normalize_rows(protos.vectors))
    return nn_classify(Q, protos)[0]


# The parent's name for each head, as its MethodPipeline.inference held it.
_PARENT_INFERENCE = {nn: "nn", sub: "sub", sub_star: "sub_star", bkm_predict: "bkm", msp_predict: "msp"}


def _parent_evaluate_episode(episode: Episode, pipeline: MethodPipeline, seed=0, projections: EpisodeProjections | None = None) -> np.ndarray:
    if projections is None:
        projections = EpisodeProjections(episode, [pipeline])
    S, Q, pool = projections.view(pipeline)
    head = getattr(pipeline.head, "func", pipeline.head)
    normalize_first = getattr(pipeline.head, "keywords", {}).get("normalize_first", True)
    return _parent_infer(S, episode.support_labels, Q, pool, _PARENT_INFERENCE[head], normalize_first, seed)


def constant_store():
    """Every row the same: the sub heads center it to zero rows, which warn."""
    return FeatureStore(classes={c: np.ones((20, 6)) for c in range(6)})


class TestHeadsMatchParent:
    """Every method, under both ``sub_normalize_first`` settings, predicts
    and warns exactly as the parent's ``_infer`` did."""

    NON_SUB = [m for m in config.METHODS if m not in ("sub", "sub-star")]
    CASES = [
        (reference_store, {}, list(config.METHODS), 50),
        (semi_wide_store, {"mode": "semi", "unlabeled": 100, "distractors": 3}, NON_SUB, 20),
        # Whitening 10-row pools to r = 9 warns (a simplex) in the first ica-* method.
        (reference_store, {"queries": 1, "dim": 9}, list(config.METHODS), 50),
        (constant_store, {}, ["nn", "sub", "sub-star", "bkm", "msp"], 10),
    ]

    @pytest.mark.parametrize("store,settings,methods,episodes", CASES, ids=["reference", "semi-805x64", "simplex", "constant"])
    @pytest.mark.parametrize("normalize_first", [True, False])
    def test_predictions_and_warnings(self, monkeypatch, store, settings, methods, episodes, normalize_first):
        store = store()
        config = BenchmarkConfig(method=",".join(methods), episodes=episodes, seed=0, sub_normalize_first=normalize_first, **settings)
        pipelines = config.pipelines()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i in range(episodes):
                ep = sample_episode(store, config.episode_spec(i))
                projections = EpisodeProjections(ep, pipelines)
                for pipe in pipelines:
                    got = evaluate_episode(ep, pipe, seed=(0, i), projections=projections)
                    assert np.array_equal(got, _parent_evaluate_episode(ep, pipe, seed=(0, i), projections=projections)), (pipe.name, i)
        reports = run_benchmark(config, store=store)
        monkeypatch.setattr(harness, "evaluate_episode", _parent_evaluate_episode)
        parent = run_benchmark(config, store=store)
        assert [(r.accuracy, r.metadata) for r in reports] == [(r.accuracy, r.metadata) for r in parent]


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
        cfg = BenchmarkConfig(method="nn", episodes=2)
        with ProcessPoolExecutor(max_workers=1, initializer=harness._pool_init, initargs=(noisy_store(), cfg, cfg.pipelines())) as pool:
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
        table = run_ablation(replace(cfg, sweep="queries"), values=[2, 5], store=noisy_store())
        assert [v for v, _ in table] == [2, 5]
        assert all(len(reps) == 1 for _, reps in table)

    def test_dim_sweep_requires_projection(self):
        cfg = BenchmarkConfig(method="nn", episodes=2, seed=0)
        with pytest.raises(ValueError, match="projection"):
            run_ablation(replace(cfg, sweep="dim"))

    def test_dim_sweep_reports_argmax(self):
        cfg = BenchmarkConfig(method="pca-nn", episodes=3, seed=0, synthetic="reference")
        table = run_ablation(replace(cfg, sweep="dim"), values=[2, 4])
        text = format_reports(table, "dim")
        assert "best dim by accuracy:" in text

    def test_noise_sweep_requires_semi(self):
        cfg = BenchmarkConfig(method="nn", episodes=2, seed=0)
        with pytest.raises(ValueError, match="semi"):
            run_ablation(replace(cfg, sweep="noise"))

    def test_unbalance_sweep(self):
        cfg = BenchmarkConfig(method="nn", episodes=3, seed=0)
        table = run_ablation(replace(cfg, sweep="unbalance"), values=[0, 20], store=noisy_store())
        assert [v for v, _ in table] == [0, 20]

    def test_unknown_sweep(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            run_ablation(BenchmarkConfig(sweep="shots"))

    def test_default_sweep_values(self):
        from tafssl.config import SWEEP_VALUES

        assert SWEEP_VALUES["queries"] == [2, 5, 10, 15, 20, 30, 50]
        assert SWEEP_VALUES["noise"] == list(range(8))
        assert SWEEP_VALUES["unbalance"] == [0, 10, 20, 30, 40, 50]


class TestOutputs:
    def test_csv_deterministic_across_worker_counts(self, tmp_path):
        store = noisy_store()
        paths = []
        for i, workers in enumerate((1, 3)):
            cfg = BenchmarkConfig(method="nn,ica-msp", episodes=10, seed=5, workers=workers)
            table = [(None, run_benchmark(cfg, store=store))]
            p = tmp_path / f"out{i}.csv"
            write_csv(p, table)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_csv_columns(self, tmp_path):
        cfg = BenchmarkConfig(method="nn", episodes=2, seed=0)
        table = [(None, run_benchmark(cfg, store=separable_store()))]
        p = tmp_path / "o.csv"
        write_csv(p, table)
        lines = p.read_text().splitlines()
        assert lines[0].startswith("sweep,value,method,mode,ways,shots")
        assert len(lines) == 2

    def test_format_reports_is_aligned_table(self):
        cfg = BenchmarkConfig(method="nn", episodes=2, seed=0)
        text = format_reports([(None, run_benchmark(cfg, store=separable_store()))])
        lines = text.splitlines()
        assert lines[0].startswith("sweep")
        assert "nn" in lines[1]

    def test_format_reports_names_methods_that_warned(self):
        def report(method, warned):
            return harness.RunReport(method, "transductive", 3, 50.0, 1.0, 0.001, {"warnings": warned})

        text = format_reports([(None, [report("nn", 0), report("ica-nn", 4), report("ica-msp", 2)])])
        assert text.splitlines()[-1] == "warnings: ica-nn 4, ica-msp 2"
        text = format_reports([(8, [report("ica-nn", 0)]), (9, [report("ica-nn", 5)])], "dim")
        assert text.splitlines()[-1] == "warnings: ica-nn (dim 9) 5"
        assert "warnings" not in format_reports([(None, [report("nn", 0), report("pca-nn", 0)])])

    def test_simplex_warning_is_charged_to_the_first_pipeline_of_the_view(self):
        # 5-way 1-shot with 1 query per class: 10-row pools, whitened to 9 = n - 1.
        cfg = BenchmarkConfig(method="pca-nn,ica-nn,ica-msp", queries=1, dim=9, episodes=6, seed=0)
        reports = run_benchmark(cfg, store=reference_store())
        assert [r.metadata["warnings"] for r in reports] == [0, 6, 0]
        assert format_reports([(None, reports)]).splitlines()[-1] == "warnings: ica-nn 6"


    def test_reference_rounds_match_the_benchmark_digests(self, tmp_path):
        # Every round of the benchmark's ``reference`` workload, recomputed:
        # 16 input sets of 8 seeded 10-episode runs on the reference store.
        table = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())["reference"]
        assert (table["episodes"], table["rounds_per_set"]) == (10, 8)
        store, path = reference_store(), tmp_path / "round.csv"
        for i, digests in table["digests"].items():
            for r, digest in enumerate(digests):
                cfg = BenchmarkConfig(synthetic="reference", method="nn,pca-nn,ica-nn,ica-msp", episodes=10, seed=1000 * int(i) + r)
                write_csv(path, [(None, run_benchmark(cfg, store=store))])
                assert sha256(path.read_bytes()).hexdigest() == digest, f"input set {i}, round {r}"

    @pytest.mark.parametrize("group,input_set", [("semi", 0), ("semi", 5), ("wide", 0)])
    def test_loaded_and_generated_stores_match_the_benchmark_digests(self, group, input_set, tmp_path):
        # The benchmark's ``semi`` rounds read a 20 x 600 reference-spec store
        # back from a binary file; its ``wide`` rounds build an m = 1024 store
        # from a mixture config file.  Each input set has 8 seeded rounds.
        table = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())[group]
        if group == "semi":
            source = tmp_path / "semi.feats"
            save_features(generate_mog_store(reference_mog_spec(), 20, 600, input_set), source)
            cfg = BenchmarkConfig(features=str(source), method="bkm,msp,pca-bkm,pca-msp", mode="semi", unlabeled=100, distractors=3, episodes=10)
        else:
            source = tmp_path / "wide_store.cfg"
            source.write_text(f"m=1024\nsignal_dims=32\nsigma_between=2.0\nclasses=20\nper_class=100\nseed={input_set}\n")
            cfg = BenchmarkConfig(synthetic=str(source), method="nn,pca-nn,pca-bkm,ica-bkm", episodes=4)
        assert (table["episodes"], table["rounds_per_set"]) == (cfg.episodes, 8)
        store, path = load_store(cfg), tmp_path / "round.csv"
        for r, digest in enumerate(table["digests"][str(input_set)]):
            write_csv(path, [(None, run_benchmark(replace(cfg, seed=1000 * input_set + r), store=store))])
            assert sha256(path.read_bytes()).hexdigest() == digest, f"input set {input_set}, round {r}"


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nmethod=pca-nn\nepisodes=9\nseed=3\nsub_normalize_first=false\n")
        values = parse_config_file(p)
        assert values == {"method": "pca-nn", "episodes": 9, "seed": 3, "sub_normalize_first": False}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("mehtod=nn\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(p)

    def test_bad_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("episodes\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file(p)

    @pytest.mark.parametrize("line,key", [("dim=", "dim"), ("sub_normalize_first=maybe", "sub_normalize_first")])
    def test_bad_value_names_path_and_line(self, tmp_path, line, key):
        p = tmp_path / "run.cfg"
        p.write_text(f"method=nn\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:2: {key}")):
            parse_config_file(p)

    @pytest.mark.parametrize("value,expected", [("true", True), ("YES", True), ("1", True), ("false", False), ("no", False), ("0", False)])
    def test_boolean_spellings(self, tmp_path, value, expected):
        p = tmp_path / "run.cfg"
        p.write_text(f"sub_normalize_first={value}\n")
        assert parse_config_file(p) == {"sub_normalize_first": expected}


class TestMixtureConfigFile:
    def test_reads_mixture_keys(self, tmp_path):
        p = tmp_path / "mog.cfg"
        p.write_text("m=6\nsignal_dims=3  # leading dims\nrho_signal=0.5\nclasses=4\nper_class=10\nseed=2\n")
        store = load_store(BenchmarkConfig(synthetic=str(p)))
        expected = generate_mog_store(MoGSpec(m=6, signal_dims=3, rho_signal=0.5), 4, 10, seed=2)
        assert sorted(store.classes) == sorted(expected.classes)
        assert all(np.array_equal(store.classes[c], expected.classes[c]) for c in expected.classes)

    @pytest.mark.parametrize(
        "text,line,match",
        [
            ("m=6\nsignal_dims\n", 2, "expected key=value"),
            ("m=6\nsignal_dims=3\nrho_signal=high\n", 3, "rho_signal"),
            ("m=6\nclasses=4\nbogus=1\n", 3, "unknown key 'bogus'"),
        ],
    )
    def test_errors_name_path_and_line(self, tmp_path, text, line, match):
        p = tmp_path / "mog.cfg"
        p.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{p}:{line}: {match}")):
            load_store(BenchmarkConfig(synthetic=str(p)))

    def test_missing_required_key_names_path(self, tmp_path):
        p = tmp_path / "mog.cfg"
        p.write_text("m=6\nsignal_dims=3\nper_class=10\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: missing required key 'classes'")):
            load_store(BenchmarkConfig(synthetic=str(p)))

    @pytest.mark.parametrize(
        "line,message",
        [
            ("classes=0", "classes must be >= 1"),
            ("per_class=0", "per_class must be >= 1"),
            ("sigma_signal=nan", "sigma_signal must be > 0"),
            ("m=0\nsignal_dims=0", "feature dimension m must be >= 1, got 0"),
            ("m=-1\nsignal_dims=0", "feature dimension m must be >= 1, got -1"),
            ("seed=-2", "seed must be >= 0"),
        ],
        ids=["classes", "per_class", "sigma_signal", "m=0", "m=-1", "seed"],
    )
    def test_bad_value_names_path_and_key(self, tmp_path, line, message):
        p = tmp_path / "mog.cfg"
        p.write_text(f"m=6\nsignal_dims=3\nclasses=4\nper_class=10\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
            load_store(BenchmarkConfig(synthetic=str(p)))


class TestShippedConfigs:
    """The files under ``configs/`` stay runnable and mean what they say."""

    CONFIGS = Path(__file__).resolve().parent.parent / "configs"

    def test_reference_mixture_is_the_reference_store(self):
        store = config.read_mixture_file(self.CONFIGS / "reference_mog.cfg")
        expected = reference_store()
        assert list(store.classes) == list(expected.classes)
        assert all(np.array_equal(store.classes[c], expected.classes[c]) for c in expected.classes)

    def test_example_run_parses_into_its_pipelines(self):
        config = BenchmarkConfig(**parse_config_file(self.CONFIGS / "example_run.cfg"))
        assert [p.name for p in config.pipelines()] == ["pca-nn", "ica-msp"]


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
