"""Tests for run settings: BenchmarkConfig's defaults, the setting rules'
returned values, and the shipped config files."""

from pathlib import Path

import numpy as np
import pytest

from tafssl import config
from tafssl.cluster import kmeans
from tafssl.config import PROTOCOL_FIELDS, BenchmarkConfig, parse_config_file, parse_method
from tafssl.episodes import EpisodeSpec, reference_store
from tafssl.harness import run_ablation, write_csv


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
