"""End-to-end CLI tests: flags, config files, CSV output, exit codes.

Each row of ``TestCli::test_determinism_across_workers`` runs one CLI
command at ``--workers 1`` and ``--workers 2`` and asserts the same CSV
bytes: every head, a queries sweep that crosses m = n, a pool smaller than
dim + 1, a degenerate mixture and a semi-mode feature file, whose CSV twin
must write the same bytes as the binary file.  Other tests run the shipped
example config, a store scaled by 2^-20 against its unit-scale twin, and a
non-finite feature file in both formats."""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tafssl
from tafssl import cli, harness
from tafssl.cli import build_parser, config_from_args
from tafssl.episodes import MoGSpec, generate_mog_store, reference_mog_spec
from tafssl.features_io import save_features
from tafssl.config import BenchmarkConfig, field_parsers


# The CLI runs in a child process, which must import the same package as
# the tests, installed or not.
SRC = str(Path(tafssl.__file__).resolve().parents[1])
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
    )


def run_cli(*args):
    return run_python("-m", "tafssl.cli", *args)


def small_feature_file(tmp_path):
    p = tmp_path / "store.feats"
    save_features(generate_mog_store(MoGSpec(m=8, signal_dims=4), 8, 40, seed=2), p)
    return p


@pytest.fixture
def feature_file(tmp_path):
    return small_feature_file(tmp_path)


def mixture_file(tmp_path, name, text):
    p = tmp_path / f"{name}.cfg"
    p.write_text(text)
    return p


ALL_HEADS = "nn,sub,sub-star,pca-nn,ica-nn,pca-bkm,ica-bkm,pca-msp,ica-msp,bkm,msp"
# One mixture at its default scales, and with each sigma times 2^-20.
UNIT_MIXTURE = "m=64\nsignal_dims=8\nclasses=20\nper_class=100\nseed=7\n"
TINY_MIXTURE = (
    "m=64\nsignal_dims=8\nsigma_noise=9.5367431640625e-07\nsigma_signal=9.5367431640625e-07\n"
    "sigma_between=2.86102294921875e-06\nclasses=20\nper_class=100\nseed=7\n"
)
DEGENERATE_MIXTURE = "m=4\nsignal_dims=0\nmu_noise=100000000\nsigma_noise=0.0001\nclasses=6\nper_class=20\nseed=0\n"


def reference_semi_files(tmp_path):
    """A 20 x 600 store of the reference mixture, as a binary file and its CSV twin."""
    store = generate_mog_store(reference_mog_spec(), 20, 600, 0)
    paths = [tmp_path / "store.feats", tmp_path / "store.csv"]
    for p in paths:
        save_features(store, p)
    return [("--features", str(p)) for p in paths]


# Each row: the sources to run (every one must write the first one's CSV
# bytes), the flags, and a line that stdout holds at both worker counts.
WORKER_RUNS = {
    "small-feature-file": (
        lambda tmp_path: [("--features", str(small_feature_file(tmp_path)))],
        ("--method", "nn,msp", "--episodes", "8", "--seed", "3"),
        None,
    ),
    "every-head": (
        lambda tmp_path: [("--synthetic", "reference")],
        ("--method", ALL_HEADS, "--episodes", "20", "--shots", "3"),
        None,
    ),
    "queries-sweep-crosses-m-eq-n": (
        lambda tmp_path: [("--synthetic", "reference")],
        ("--method", "pca-nn,ica-nn,pca-msp", "--sweep", "queries", "--episodes", "5"),
        None,
    ),
    "pool-smaller-than-dim": (
        lambda tmp_path: [("--synthetic", "reference")],
        ("--ways", "2", "--queries", "2", "--dim", "12", "--method", "pca-nn,ica-nn,pca-bkm,ica-msp", "--episodes", "20"),
        "warnings: ica-nn 20",
    ),
    "degenerate-mixture": (
        lambda tmp_path: [("--synthetic", str(mixture_file(tmp_path, "degenerate", DEGENERATE_MIXTURE)))],
        ("--method", "bkm,pca-bkm", "--episodes", "20"),
        None,
    ),
    "semi-feature-file-and-csv-twin": (
        reference_semi_files,
        ("--mode", "semi", "--unlabeled", "100", "--distractors", "3", "--method", "bkm,msp,pca-bkm,pca-msp", "--episodes", "20"),
        None,
    ),
}


# Each flag's bad value, the one error line it gives, and the settings that line names.
BAD_SETTINGS = [
    (("--ways", "1"), "ways must be >= 2, got 1", ["ways"]),
    (("--shots", "0"), "shots must be >= 1, got 0", ["shots"]),
    (("--queries", "0"), "queries must be >= 1, got 0", ["queries"]),
    (("--distractors", "-1"), "distractors must be >= 0, got -1", ["distractors"]),
    (("--unbalanced-r", "-1"), "unbalanced_r must be >= 0, got -1", ["unbalanced_r"]),
    (("--mode", "semi"), "semi mode needs unlabeled >= 1", ["mode", "unlabeled"]),
    (
        ("--unlabeled", "5"),
        "transductive mode uses queries as the unlabeled pool; unlabeled and distractors must be 0",
        ["mode", "queries", "unlabeled", "distractors"],
    ),
    (("--episodes", "0"), "episodes must be >= 1, got 0", ["episodes"]),
    (("--workers", "0"), "workers must be >= 1, got 0", ["workers"]),
    (("--seed", "-1"), "seed must be >= 0, got -1", ["seed"]),
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
        assert r.stderr.strip() == "error: unbalanced_r must be >= 0, got -3"

    def test_negative_seed_exits_1_before_the_source_is_read(self):
        r = run_cli("--features", "/nonexistent/path.feats", "--method", "nn", "--episodes", "1", "--seed", "-1")
        assert r.returncode == 1
        assert r.stderr.strip() == "error: seed must be >= 0, got -1"

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

    def test_dim_without_a_projection_exits_1_before_the_source_is_read(self):
        r = run_cli("--features", "/nonexistent/path.feats", "--method", "nn,sub", "--dim", "8", "--episodes", "1")
        assert r.returncode == 1
        assert r.stderr.splitlines() == ["error: dim = 8 is set, but no method projects: nn, sub"]
        assert r.stdout == ""

    def test_a_run_the_store_cannot_supply_exits_1_before_it_starts(self):
        r = run_cli("--synthetic", "reference", "--ways", "30", "--episodes", "1")
        assert r.returncode == 1
        assert r.stderr.splitlines() == ["error: ways + distractors = 30, but the store has 20 classes"]
        assert r.stdout == ""

    def test_a_sweep_the_store_cannot_supply_exits_1_before_its_first_value(self):
        r = run_cli("--synthetic", "reference", "--mode", "semi", "--unlabeled", "60", "--sweep", "queries", "--episodes", "1")
        assert r.returncode == 1
        assert r.stderr == "error: shots + queries + unbalanced_r + unlabeled = 111, but the store's smallest class has 100 samples\n"
        assert r.stdout == ""

    def test_a_dim_sweep_the_store_cannot_hold_exits_1_before_its_first_value(self, tmp_path):
        mixture = tmp_path / "m12.cfg"
        mixture.write_text("m=12\nsignal_dims=4\nclasses=10\nper_class=60\nseed=4\n")
        r = run_cli("--synthetic", str(mixture), "--method", "pca-nn", "--sweep", "dim", "--episodes", "1")
        assert r.returncode == 1
        assert r.stderr == "error: pca-nn projects to dim = 15, but the store's features have 12 dimensions\n"
        assert r.stdout == ""

    def test_a_dim_the_store_cannot_hold_exits_1_before_it_starts(self):
        r = run_cli("--synthetic", "reference", "--method", "pca-nn", "--dim", "100", "--episodes", "2")
        assert r.returncode == 1
        assert r.stderr.splitlines() == ["error: pca-nn projects to dim = 100, but the store's features have 64 dimensions"]
        assert r.stdout == ""

    def test_the_deleted_sub_normalize_first_flag_exits_1(self):
        r = run_cli("--synthetic", "reference", "--sub-normalize-first", "false", "--episodes", "1")
        assert r.returncode == 1
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.strip().splitlines()) == 1
        assert r.stdout == ""

    @pytest.mark.parametrize(
        "out,message",
        [("missing/dir/x.csv", "out: no such directory: {tmp}/missing/dir"), ("", "out: {tmp} is a directory")],
        ids=["no-such-directory", "a-directory"],
    )
    def test_a_bad_out_path_exits_1_before_the_run(self, monkeypatch, capsys, tmp_path, out, message):
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(harness, "load_store", never)
        path = os.path.join(tmp_path, out) if out else str(tmp_path)
        assert cli.main(["--synthetic", "reference", "--method", "nn", "--episodes", "300", "--out", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(tmp=tmp_path)}\n"

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
        text = {int: "7", str: "pca-nn"}[field_parsers(BenchmarkConfig)[f.name]]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{f.name}={text}\n")
        from_flag = config_from_args(build_parser().parse_args([f"--{f.name.replace('_', '-')}", text]))
        from_file = config_from_args(build_parser().parse_args(["--config", str(cfg)]))
        assert from_flag == from_file != BenchmarkConfig()

    def test_every_config_field_has_a_flag(self):
        dests = {action.dest for action in build_parser()._actions}
        assert {f.name for f in fields(BenchmarkConfig)} <= dests

    def test_unknown_method_errors(self, feature_file):
        r = run_cli("--features", str(feature_file), "--method", "xyz")
        assert r.returncode == 1
        assert "unknown method" in r.stderr

    def test_missing_file_errors(self):
        r = run_cli("--features", "/nonexistent/path.feats", "--method", "nn")
        assert r.returncode == 1
        assert r.stderr.startswith("error: ")

    @pytest.mark.parametrize("name", WORKER_RUNS)
    def test_determinism_across_workers(self, name, tmp_path):
        make_sources, flags, stdout_line = WORKER_RUNS[name]
        first, *twins = make_sources(tmp_path)
        runs = [(first, "1"), (first, "2"), *((source, "1") for source in twins)]
        outs = []
        for i, (source, workers) in enumerate(runs):
            out = tmp_path / f"r{i}.csv"
            r = run_cli(*source, *flags, "--workers", workers, "--out", str(out))
            assert r.returncode == 0, r.stderr
            if stdout_line:
                assert stdout_line in r.stdout.splitlines()
            outs.append(out.read_bytes())
        assert outs == outs[:1] * len(runs)

    def test_the_example_config_runs_to_a_csv(self, tmp_path):
        out = tmp_path / "example.csv"
        r = run_cli("--config", str(CONFIGS / "example_run.cfg"), "--episodes", "20", "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert [line.split(",")[2] for line in out.read_text().splitlines()[1:]] == ["pca-nn", "ica-msp"]

    def test_a_store_scaled_by_2_pow_minus_20_writes_the_unit_scale_csv(self, tmp_path):
        outs = []
        for name, text in (("unit", UNIT_MIXTURE), ("tiny", TINY_MIXTURE)):
            out = tmp_path / f"scale_{name}.csv"
            r = run_cli(
                "--synthetic", str(mixture_file(tmp_path, name, text)),
                "--method", "nn,sub,sub-star,pca-nn,ica-nn,ica-bkm,ica-msp",
                "--episodes", "300",
                "--out", str(out),
            )
            assert r.returncode == 0, r.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_a_non_finite_feature_file_fails_the_same_way_in_both_formats(self, tmp_path):
        classes = dict(generate_mog_store(reference_mog_spec(), 20, 600, 0).classes)
        classes[3] = classes[3].copy()
        classes[3][7, 0] = np.nan
        errors = []
        for ext in ("feats", "csv"):
            path = tmp_path / f"bad.{ext}"
            save_features(SimpleNamespace(classes=classes, m=64), path)  # a FeatureStore refuses the NaN
            r = run_cli("--features", str(path), "--method", "nn", "--episodes", "1")
            assert r.returncode == 1
            errors.append(r.stderr)
        assert errors == ["error: non-finite value in class 3, row 7\n"] * 2

    def test_a_serial_run_loads_no_process_pool(self):
        # The last run starts a pool, so the check is seen to find the modules.
        r = run_python("-c", """
import sys
from tafssl import BenchmarkConfig, run_benchmark
from tafssl.cli import main
POOL = {"multiprocessing", "concurrent.futures.process"}
run_benchmark(BenchmarkConfig(method="nn,pca-nn", synthetic="reference", episodes=2))
assert main(["--synthetic", "reference", "--method", "nn,pca-msp", "--episodes", "2"]) == 0
assert not POOL & set(sys.modules), sorted(POOL & set(sys.modules))
assert main(["--synthetic", "reference", "--method", "nn", "--episodes", "2", "--workers", "2"]) == 0
assert POOL <= set(sys.modules)
""")
        assert r.returncode == 0, r.stderr

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy < 2 imports numpy.ma itself")
    def test_a_run_loads_no_numpy_ma(self):
        # numpy imports numpy.ma on first use; touching np.ma last shows the check sees it.
        r = run_python("-c", """
import sys
import numpy as np
from tafssl.cli import main
assert main(["--synthetic", "reference", "--method", "nn,sub,sub-star,pca-nn,ica-nn,pca-bkm,ica-bkm,pca-msp,ica-msp,bkm,msp", "--episodes", "2", "--shots", "3"]) == 0
assert main(["--synthetic", "reference", "--mode", "semi", "--unlabeled", "30", "--method", "bkm,msp,pca-bkm,pca-msp", "--episodes", "2"]) == 0
assert "numpy.ma" not in sys.modules
np.ma
assert "numpy.ma" in sys.modules
""")
        assert r.returncode == 0, r.stderr
