"""Smoke test of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_smoke.py

A very short run of every workload (declared in BENCHMARK.json or not) must
pass its output checks and emit exactly the metric names BENCHMARK.json
declares; a traced run's spans must nest, with self time never negative.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
from workloads import ROUNDS_PER_SET, WORKLOADS

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_declared_workloads_exist():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOADS)


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_emits_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= ROUNDS_PER_SET
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    result = _run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0  # correct includes the span check
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["harness.run_benchmark.calls"]["value"] > 0


def test_spans_nest_and_originals_come_back():
    run.import_library()
    import tafssl
    from tafssl import bkm, fit_ica, harness

    original = harness.fit_ica
    rng = np.random.default_rng(0)
    pool = rng.standard_normal((40, 12))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.fit_ica is not original and tafssl.fit_ica is harness.fit_ica
        proj = tafssl.fit_ica(pool, r=4, seed=0)
        Z = proj.apply(pool)
        tafssl.bkm(Z[:5], np.arange(5), Z[5:20], Z, k=3, seed=0)
    finally:
        tracer.uninstall()
    assert harness.fit_ica is original is fit_ica and tafssl.bkm is bkm

    assert tracer.check_spans() == []
    names = [tracing.FUNCTIONS[s[tracing.FID]] for s in tracer.spans]
    parent_of = {names[i]: names[s[tracing.PARENT]] for i, s in enumerate(tracer.spans) if s[tracing.PARENT] >= 0}
    assert parent_of["subspace.whiten"] == "subspace.fit_ica"
    assert parent_of["cluster.kmeans"] == "cluster.bkm"
    assert parent_of["linalg.softmax_rows"] in ("cluster.kmeans", "cluster.bkm_from_centroids")
    metrics = tracer.span_metrics()
    assert metrics["subspace.fit_ica.calls"] == 1 and metrics["cluster.kmeans.calls"] == 1
    assert all(metrics[f"{f}.self_ms"] >= 0 for f in tracing.FUNCTIONS)

    tracer.spans[1][tracing.END] = tracer.spans[0][tracing.END] + 1  # a child outliving its parent
    assert any("outside its parent" in p for p in tracer.check_spans())
