"""Print every benchmark metric by name with its unit, for every workload.

    python3 perfbench/report.py [--seed 0]

Each workload declared in BENCHMARK.json runs twice, untraced and traced, for
the declared ``run_seconds``, in its own process through ``perfbench/run.py``.
The table has one row per (workload, metric): end-to-end rows first,
including ``failed_frac`` (failed runs / attempted), then per-layer rows.
The environment each run recorded and the top self-time module of each
traced run follow the table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, str]:
    """Run one workload; returns (result, environment, top self-time module)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} (trace {trace}) exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    top = next((line.split(": ", 1)[1] for line in lines if line.startswith("top self-time module: ")), "-")
    return json.loads(lines[-1]), env, top


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rows, envs, tops = [], {}, {}
    for level, trace in (("end_to_end", 0), ("per_layer", 1)):
        for workload in (w["name"] for w in declared["workloads"]):
            result, envs[workload, level], top = run_workload(workload, args.seed, declared["run_seconds"], trace)
            for name, metric in result["metrics"].items():
                rows.append((workload, level, name, f"{metric['value']:.6g}", metric["unit"]))
            if trace:
                tops[workload] = top
            else:
                frac = result["failed"] / result["attempted"]
                rows.append((workload, level, "failed_frac", f"{frac:.6g}", f"frac of {result['attempted']}"))
    header = ("workload", "level", "metric", "value", "unit")
    widths = [max(len(r[c]) for r in [header, *rows]) for c in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    print()
    for workload, top in tops.items():
        print(f"top self-time module on {workload}: {top}")
    for (workload, level), env in envs.items():
        print(f"environment {workload} {level}: {json.dumps(env, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
