"""End-to-end CLI tests: flags, config files, CSV output, exit codes."""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import tafssl
from tafssl.cli import build_parser, config_from_args
from tafssl.episodes import MoGSpec, generate_mog_store
from tafssl.features_io import save_features
from tafssl.config import BenchmarkConfig, boolean, field_parsers


# The CLI runs in a child process, which must import the same package as
# the tests, installed or not.
SRC = str(Path(tafssl.__file__).resolve().parents[1])


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tafssl.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
    )


@pytest.fixture
def feature_file(tmp_path):
    p = tmp_path / "store.feats"
    save_features(generate_mog_store(MoGSpec(m=8, signal_dims=4), 8, 40, seed=2), p)
    return p


# Each flag's bad value, the one error line it gives, and the settings that line names.
BAD_SETTINGS = [
    (("--ways", "1"), "ways must be >= 2", ["ways"]),
    (("--shots", "0"), "shots must be >= 1", ["shots"]),
    (("--queries", "0"), "queries must be >= 1", ["queries"]),
    (("--distractors", "-1"), "distractors must be >= 0", ["distractors"]),
    (("--unbalanced-r", "-1"), "unbalanced_r must be >= 0", ["unbalanced_r"]),
    (("--mode", "semi"), "semi mode needs unlabeled >= 1", ["mode", "unlabeled"]),
    (
        ("--unlabeled", "5"),
        "transductive mode uses queries as the unlabeled pool; unlabeled and distractors must be 0",
        ["mode", "queries", "unlabeled", "distractors"],
    ),
    (("--episodes", "0"), "episodes must be >= 1", ["episodes"]),
    (("--workers", "0"), "workers must be >= 1", ["workers"]),
    (("--seed", "-1"), "seed must be >= 0", ["seed"]),
]


class TestCli:
    def test_benchmark_run(self, feature_file, tmp_path):
        out = tmp_path / "res.csv"
        r = run_cli("--features", str(feature_file), "--method", "nn,pca-nn", "--episodes", "5", "--seed", "1", "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert "pca-nn" in r.stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 methods

    def test_synthetic_reference(self):
        r = run_cli("--synthetic", "reference", "--method", "nn", "--episodes", "2")
        assert r.returncode == 0, r.stderr

    def test_warnings_are_shown(self):
        r = run_cli("--synthetic", "reference", "--method", "ica-nn", "--queries", "1", "--dim", "9", "--episodes", "3")
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "warnings: ica-nn 3"
        r = run_cli("--synthetic", "reference", "--method", "ica-nn", "--episodes", "3")
        assert "warnings" not in r.stdout

    def test_synthetic_config_file(self, tmp_path):
        cfg = tmp_path / "mog.cfg"
        cfg.write_text("m=6\nsignal_dims=3\nclasses=8\nper_class=30\nseed=1\n")
        r = run_cli("--synthetic", str(cfg), "--method", "bkm", "--episodes", "2")
        assert r.returncode == 0, r.stderr

    def test_config_file_with_cli_override(self, feature_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"features={feature_file}\nmethod=nn\nepisodes=99\n")
        r = run_cli("--config", str(cfg), "--episodes", "3")
        assert r.returncode == 0, r.stderr
        assert " 3" in r.stdout  # episode count from the flag, not the file

    def test_sweep(self, tmp_path):
        p = tmp_path / "wide.feats"
        save_features(generate_mog_store(MoGSpec(m=24, signal_dims=6), 8, 40, seed=3), p)
        r = run_cli("--features", str(p), "--method", "ica-nn", "--episodes", "2", "--sweep", "dim")
        assert r.returncode == 0, r.stderr
        assert "best dim by accuracy" in r.stdout

    def test_missing_source_errors(self):
        r = run_cli("--method", "nn", "--episodes", "1")
        assert r.returncode == 1
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("flags", [("--ways", "x"), ("--mode", "bogus"), ("--bogus", "3")], ids=["bad-int", "bad-choice", "unknown-flag"])
    def test_flag_errors_exit_1_with_one_line(self, flags):
        r = run_cli("--synthetic", "reference", "--episodes", "1", *flags)
        assert r.returncode == 1
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.strip().splitlines()) == 1

    def test_negative_unbalance_exits_1_naming_the_setting(self):
        r = run_cli("--synthetic", "reference", "--method", "nn", "--episodes", "1", "--unbalanced-r", "-3")
        assert r.returncode == 1
        assert r.stderr.strip() == "error: unbalanced_r must be >= 0"

    def test_negative_seed_exits_1_before_the_source_is_read(self):
        r = run_cli("--features", "/nonexistent/path.feats", "--method", "nn", "--episodes", "1", "--seed", "-1")
        assert r.returncode == 1
        assert r.stderr.strip() == "error: seed must be >= 0"

    @pytest.mark.parametrize("flags,message,named", BAD_SETTINGS, ids=[f"{flag[2:]}={value}" for (flag, value), _, _ in BAD_SETTINGS])
    def test_a_bad_setting_names_its_flag_before_the_source_is_read(self, flags, message, named):
        r = run_cli("--features", "/nonexistent/path.feats", "--method", "nn", *flags)
        assert r.returncode == 1
        assert r.stderr.splitlines() == [f"error: {message}"]
        help_text = build_parser().format_help()
        for name in named:
            assert name in message.split() and name in {f.name for f in fields(BenchmarkConfig)}
            assert f"--{name.replace('_', '-')}" in help_text

    def test_repeated_method_exits_1_naming_it(self):
        r = run_cli("--features", "/nonexistent/path.feats", "--method", "nn,nn", "--episodes", "1")
        assert r.returncode == 1
        assert r.stderr.splitlines() == ["error: method 'nn' is given more than once"]

    def test_a_run_the_store_cannot_supply_exits_1_before_it_starts(self):
        r = run_cli("--synthetic", "reference", "--ways", "30", "--episodes", "1")
        assert r.returncode == 1
        assert r.stderr.splitlines() == ["error: ways + distractors = 30, but the store has 20 classes"]
        assert r.stdout == ""

    @pytest.mark.parametrize("flag", ["--mode", "--sweep"])
    def test_bad_mode_or_sweep_exits_before_the_source_is_read(self, flag):
        r = run_cli("--features", "/nonexistent/path.feats", "--episodes", "1", flag, "bogus")
        assert r.returncode == 1
        valid = "transductive, semi" if flag == "--mode" else "queries, noise, dim, unbalance"
        assert r.stderr.strip() == f"error: unknown {flag[2:]} 'bogus'; choose from {valid}"

    def test_help_shows_each_default(self):
        r = run_cli("--help")
        assert r.returncode == 0, r.stderr
        text = " ".join(r.stdout.split())  # undo argparse's line wrapping
        for f in fields(BenchmarkConfig):
            assert f"--{f.name.replace('_', '-')}" in text
            assert f"{f.metadata['help']} (default {f.default})" in text

    @pytest.mark.parametrize("f", fields(BenchmarkConfig), ids=lambda f: f.name)
    def test_flag_and_config_line_give_the_same_value(self, f, tmp_path):
        text = {int: "7", boolean: "no", str: "pca-nn"}[field_parsers(BenchmarkConfig)[f.name]]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{f.name}={text}\n")
        from_flag = config_from_args(build_parser().parse_args([f"--{f.name.replace('_', '-')}", text]))
        from_file = config_from_args(build_parser().parse_args(["--config", str(cfg)]))
        assert from_flag == from_file != BenchmarkConfig()

    def test_every_config_field_has_a_flag(self):
        dests = {action.dest for action in build_parser()._actions}
        assert {f.name for f in fields(BenchmarkConfig)} <= dests

    @pytest.mark.parametrize("value,expected", [("true", True), ("yes", True), ("1", True), ("false", False), ("No", False), ("0", False)])
    def test_sub_normalize_first_takes_the_file_spellings(self, value, expected):
        args = build_parser().parse_args(["--sub-normalize-first", value])
        assert config_from_args(args).sub_normalize_first is expected

    def test_unknown_method_errors(self, feature_file):
        r = run_cli("--features", str(feature_file), "--method", "xyz")
        assert r.returncode == 1
        assert "unknown method" in r.stderr

    def test_missing_file_errors(self):
        r = run_cli("--features", "/nonexistent/path.feats", "--method", "nn")
        assert r.returncode == 1
        assert r.stderr.startswith("error: ")

    def test_determinism_across_workers(self, feature_file, tmp_path):
        outs = []
        for i, workers in enumerate(("1", "2")):
            out = tmp_path / f"r{i}.csv"
            r = run_cli(
                "--features", str(feature_file),
                "--method", "nn,msp",
                "--episodes", "8",
                "--seed", "3",
                "--workers", workers,
                "--out", str(out),
            )
            assert r.returncode == 0, r.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
