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
from tafssl.config import SWEEP_VALUES, BenchmarkConfig, MethodPipeline, parse_config_file, parse_method
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
from tafssl.linalg import BlasThreadWarning, blas_threads, set_blas_threads
from tafssl import subspace
from tafssl.classify import build_prototypes, nn, nn_classify, sub, sub_star
from tafssl.cluster import bkm, bkm_predict, msp, msp_predict
from tafssl.features_io import save_features
from tafssl.subspace import ICA_DEFAULT_DIM, PCA_DEFAULT_DIM, PoolDecomposition, fit_ica


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


def constant_store():
    """Every row the same: the sub heads center it to zero rows, which warn."""
    return FeatureStore(classes={c: np.ones((20, 6)) for c in range(6)})


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
        assert p.head is head

    def test_every_pipeline_survives_a_pickle_round_trip(self):
        # Pool workers receive the pipelines pickled.
        ep = sample_episode(noisy_store(), EpisodeSpec(seed=4))
        for name in config.METHODS:
            pipe = parse_method(name)
            copy = pickle.loads(pickle.dumps(pipe))
            assert np.array_equal(evaluate_episode(ep, copy, seed=(0, 4)), evaluate_episode(ep, pipe, seed=(0, 4))), name

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

    @pytest.mark.parametrize("method", ["nn", "nn,sub,msp"])
    def test_dim_without_a_projection_checked_before_store_loads(self, tmp_path, method):
        cfg = BenchmarkConfig(method=method, dim=8, features=str(tmp_path / "missing.feats"))
        with pytest.raises(ValueError) as info:
            run_benchmark(cfg)
        assert str(info.value) == f"dim = 8 is set, but no method projects: {method.replace(',', ', ')}"
        BenchmarkConfig(method=f"{method},pca-nn", dim=8).pipelines()

    def test_an_empty_method_list_is_rejected(self):
        with pytest.raises(ValueError, match="^no method given$"):
            BenchmarkConfig(method=",").pipelines()

    @pytest.mark.parametrize(
        "sources,message",
        [
            ({"features": "a.feats", "synthetic": "reference"}, "give either --features or --synthetic, not both"),
            ({}, "no feature source: pass --features <path> or --synthetic <config|reference>"),
        ],
        ids=["both", "neither"],
    )
    def test_load_store_needs_exactly_one_source(self, sources, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_store(BenchmarkConfig(**sources))

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

        monkeypatch.setattr(harness, "sample_episode", no_episode)
        cfg = BenchmarkConfig(method="nn", episodes=2, **settings)
        with pytest.raises(ValueError, match=re.escape(message)):
            (run_ablation if cfg.sweep else run_benchmark)(cfg, store=make_store())

    @pytest.mark.parametrize("settings", [{"queries": 99}, {"ways": 20}, {"queries": 49, "unbalanced_r": 50}], ids=["queries", "ways", "unbalanced"])
    def test_a_run_the_store_can_just_supply_runs(self, settings):
        reports = run_benchmark(BenchmarkConfig(method="nn", episodes=2, **settings), store=reference_store())
        assert [r.episodes for r in reports] == [2]

    DIM_OVERFLOWS = [
        (reference_store, {"method": "pca-nn", "dim": 100}, "pca-nn projects to dim = 100, but the store's features have 64 dimensions"),
        (reference_store, {"method": "nn,ica-msp", "dim": 65}, "ica-msp projects to dim = 65, but the store's features have 64 dimensions"),
        (noisy_store, {"method": "pca-nn,ica-nn", "sweep": "dim"}, "pca-nn projects to dim = 15, but the store's features have 12 dimensions"),
    ]

    @pytest.mark.parametrize("make_store,settings,message", DIM_OVERFLOWS, ids=["pca", "ica", "dim-sweep"])
    def test_a_dim_the_store_cannot_hold_fails_before_episode_0(self, monkeypatch, make_store, settings, message):
        def no_episode(*args):
            raise AssertionError("an episode was sampled")

        monkeypatch.setattr(harness, "sample_episode", no_episode)
        cfg = BenchmarkConfig(episodes=2, **settings)
        with pytest.raises(ValueError) as info:
            run_ablation(cfg, store=make_store())
        assert str(info.value) == message

    def test_a_dim_the_store_can_just_hold_runs(self):
        reports = run_benchmark(BenchmarkConfig(method="pca-nn,ica-nn", dim=64, episodes=1), store=reference_store())
        assert [r.metadata["dim"] for r in reports] == [64, 64]


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


class TestRunReport:
    def test_figures_derive_from_per_episode(self):
        rep = harness.RunReport("nn", "transductive", (1.0, 0.0), 0.001)
        assert (rep.episodes, rep.accuracy, rep.ci95) == (2, 50.0, 1.96 * 0.5 / np.sqrt(2) * 100)

    def test_one_episode_has_a_zero_width_interval(self):
        rep = harness.RunReport("nn", "transductive", (0.6,), 0.001)
        assert (rep.episodes, rep.ci95) == (1, 0.0)

    def test_the_figures_are_not_fields(self):
        assert [f.name for f in fields(harness.RunReport)] == ["method", "mode", "per_episode", "seconds_per_episode", "metadata"]


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

    def test_dim_sweep_reports_argmax(self):
        for method in ("pca-nn", "pca-nn,ica-nn"):
            cfg = BenchmarkConfig(method=method, episodes=3, seed=0, synthetic="reference")
            table = run_ablation(replace(cfg, sweep="dim"))
            text = format_reports(table, "dim")
            # One entry per method: its own best dim, not the best over all methods.
            entries = []
            for name in cfg.methods():
                accuracy, dim = max((rep.accuracy, value) for value, reports in table for rep in reports if rep.method == name)
                entries.append(f"{name} {dim} ({accuracy:.2f}%)")
            assert text.splitlines()[-1] == f"best dim by accuracy: {', '.join(entries)}"

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

    @pytest.mark.parametrize("sweep,field", [("queries", "queries"), ("noise", "distractors"), ("dim", "dim"), ("unbalance", "unbalanced_r")])
    def test_table_sets_the_swept_field_to_each_value(self, sweep, field):
        base = BenchmarkConfig(method="pca-nn,ica-nn", mode="semi", unlabeled=5, sweep=sweep)
        table = base.table()
        assert [value for value, _, _ in table] == SWEEP_VALUES[sweep]
        for value, cfg, pipes in table:
            assert cfg == replace(base, **{field: value})
            assert [p.r for p in pipes] == ([value, value] if sweep == "dim" else [PCA_DEFAULT_DIM, ICA_DEFAULT_DIM])

    def test_table_without_a_sweep_is_the_config_itself(self):
        cfg = BenchmarkConfig(method="nn,pca-bkm")
        [(value, row, pipes)] = cfg.table()
        assert value is None and row is cfg and pipes == cfg.pipelines()

    def test_default_sweep_values(self):
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
            return harness.RunReport(method, "transductive", (0.5, 0.5, 0.5), 0.001, {"warnings": warned})

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
        p.write_text("# comment\nmethod=pca-nn\nepisodes=9\nseed=3\nworkers=2\n")
        values = parse_config_file(p)
        assert values == {"method": "pca-nn", "episodes": 9, "seed": 3, "workers": 2}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("mehtod=nn\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(p)

    def test_the_deleted_sub_normalize_first_key_is_unknown(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("sub_normalize_first=false\n")
        with pytest.raises(ValueError) as info:
            parse_config_file(p)
        assert str(info.value) == f"{p}:1: unknown key 'sub_normalize_first'"

    def test_a_repeated_key_names_its_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("episodes=5\nmethod=nn\nepisodes=7\n")
        with pytest.raises(ValueError) as info:
            parse_config_file(p)
        assert str(info.value) == f"{p}:3: duplicate key 'episodes'"

    def test_bad_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("episodes\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file(p)

    @pytest.mark.parametrize("line,key", [("dim=", "dim"), ("workers=two", "workers")])
    def test_bad_value_names_path_and_line(self, tmp_path, line, key):
        p = tmp_path / "run.cfg"
        p.write_text(f"method=nn\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:2: {key}")):
            parse_config_file(p)


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
            ("m=6\nclasses=4\nm=8\n", 3, "duplicate key 'm'"),
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
            ("sigma_signal=nan", "sigma_signal must be a finite real number in (0, inf), got nan"),
            ("sigma_noise=inf", "sigma_noise must be a finite real number in (0, inf), got inf"),
            ("sigma_between=inf", "sigma_between must be a finite real number in (0, inf), got inf"),
            ("mu_noise=nan", "mu_noise must be a finite real number in (-inf, inf), got nan"),
            ("m=0\nsignal_dims=0", "feature dimension m must be >= 1, got 0"),
            ("m=-1\nsignal_dims=0", "feature dimension m must be >= 1, got -1"),
            ("seed=-2", "seed must be >= 0"),
        ],
        ids=["classes", "per_class", "sigma_signal", "sigma_noise", "sigma_between", "mu_noise", "m=0", "m=-1", "seed"],
    )
    def test_bad_value_names_path_and_key(self, tmp_path, line, message):
        # ``line`` replaces the base value of each key it sets: a file may not repeat a key.
        keys = dict(kv.split("=") for kv in f"m=6\nsignal_dims=3\nclasses=4\nper_class=10\n{line}".splitlines())
        p = tmp_path / "mog.cfg"
        p.write_text("".join(f"{key}={value}\n" for key, value in keys.items()))
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
