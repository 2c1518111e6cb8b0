"""Tests for run settings: the method table, BenchmarkConfig's defaults and
the checks a run's settings get before its first episode, the setting
rules' returned values, run-config and mixture files, and the shipped
config files."""

import json
import pickle
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from tafssl import config, harness
from tafssl.classify import nn, sub, sub_star
from tafssl.cluster import bkm, bkm_predict, kmeans, msp, msp_predict
from tafssl.config import PROTOCOL_FIELDS, SWEEP_VALUES, BenchmarkConfig, parse_config_file, parse_method
from tafssl.episodes import EpisodeSpec, FeatureStore, MoGSpec, generate_mog_store, reference_store, sample_episode
from tafssl.harness import EpisodeProjections, evaluate_episode, load_store, run_ablation, run_benchmark
from tafssl.report import write_csv
from tafssl.subspace import ICA_DEFAULT_DIM, PCA_DEFAULT_DIM

from stores import noisy_store, separable_store


def test_protocol_defaults_are_the_episode_spec_defaults():
    cfg, spec = BenchmarkConfig(), EpisodeSpec()
    for name in (*PROTOCOL_FIELDS, "mode"):
        assert getattr(cfg, name) == getattr(spec, name), name


def test_numpy_integer_settings_write_the_same_csv(tmp_path):
    paths = []
    for kind in (int, np.int64):
        cfg = BenchmarkConfig(method="pca-nn,bkm", synthetic="reference", episodes=3, seed=kind(3), shots=kind(1), dim=kind(4))
        paths.append(tmp_path / f"{kind.__name__}.csv")
        write_csv(paths[-1], run_ablation(cfg))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_settings_hold_python_scalars_and_metadata_is_plain_data():
    spec = EpisodeSpec(ways=np.int64(3), queries=np.int32(4), seed=(np.int64(2), np.uint8(1)))
    assert [type(v) for v in (spec.ways, spec.shots, spec.queries, *spec.seed)] == [int] * 5
    assert type(EpisodeSpec(seed=np.int64(5)).seed) is int
    mog = MoGSpec(m=np.int64(6), signal_dims=np.int8(3), rho_signal=np.float32(0.5), mu_noise=1, sigma_noise=np.float16(2))
    assert [type(v) for v in (mog.m, mog.signal_dims)] == [int] * 2
    assert {type(getattr(mog, name)) for name in ("rho_signal", "mu_noise", "sigma_noise", "sigma_between", "sigma_signal")} == {float}
    tables = [run_ablation(BenchmarkConfig(method="pca-nn,bkm", synthetic="reference", episodes=2, seed=kind(3), shots=kind(1))) for kind in (int, np.int64)]
    metadata = [[rep.metadata for _, reports in table for rep in reports] for table in tables]
    assert metadata[1] == metadata[0]
    assert json.loads(json.dumps(metadata[1])) == metadata[0]


def test_a_setting_rule_returns_a_python_int():
    assert type(kmeans(np.random.default_rng(0).normal(size=(6, 3)), np.int64(2)).k) is int
    assert type(parse_method("pca-nn", np.int64(4)).r) is int


def test_a_bool_seed_fails_before_episode_0(monkeypatch):
    monkeypatch.setattr("tafssl.harness._run_one_episode", lambda *args: pytest.fail("an episode ran"))
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got True$"):
        run_ablation(BenchmarkConfig(synthetic="reference", seed=True))


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

    @pytest.mark.parametrize(
        "out,message",
        [("missing/dir/x.csv", "out: no such directory: {tmp}/missing/dir"), ("", "out: {tmp} is a directory")],
        ids=["no-such-directory", "a-directory"],
    )
    def test_a_bad_out_path_checked_before_store_loads(self, tmp_path, out, message):
        cfg = BenchmarkConfig(method="nn", out=str(tmp_path / out), features=str(tmp_path / "missing.feats"))
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(tmp=tmp_path))}$"):
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


class TestSweeps:
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
