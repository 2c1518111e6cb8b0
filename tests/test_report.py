"""Tests for run output: a report's figures, the aligned table with its
best-dim and warnings lines, and the CSV, whose bytes the benchmark's
digests pin."""

import json
from dataclasses import fields, replace
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

from tafssl.config import BenchmarkConfig
from tafssl.episodes import generate_mog_store, reference_mog_spec, reference_store
from tafssl.features_io import save_features
from tafssl.harness import load_store, run_ablation, run_benchmark
from tafssl.report import RunReport, format_reports, write_csv

from stores import noisy_store, separable_store



class TestRunReport:
    def test_figures_derive_from_per_episode(self):
        rep = RunReport("nn", "transductive", (1.0, 0.0), 0.001)
        assert (rep.episodes, rep.accuracy, rep.ci95) == (2, 50.0, 1.96 * 0.5 / np.sqrt(2) * 100)

    def test_one_episode_has_a_zero_width_interval(self):
        rep = RunReport("nn", "transductive", (0.6,), 0.001)
        assert (rep.episodes, rep.ci95) == (1, 0.0)

    def test_the_figures_are_not_fields(self):
        assert [f.name for f in fields(RunReport)] == ["method", "mode", "per_episode", "seconds_per_episode", "metadata"]


class TestSweeps:
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
            return RunReport(method, "transductive", (0.5, 0.5, 0.5), 0.001, {"warnings": warned})

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
