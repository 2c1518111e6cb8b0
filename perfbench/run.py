"""Run one benchmark workload against the library in this checkout.

    python3 perfbench/run.py --workload wide --seed 0 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics.  Rounds cycle through the
input set's episode seeds until ``--seconds`` have passed.  Each round times
one set-up sample (``harness.load_store`` calls filling at least
``SETUP_SAMPLE_S``) and one ``harness.run_benchmark`` call, then checks the
``harness.write_csv`` bytes against the digest stored for that round.

``--trace 1`` measures the per-layer metrics: one pass over the episode
seeds, each round once untraced and once traced, in alternating order.  On
``reference`` it also runs the golden configuration, whose accuracies must
match ``tests/golden/reference_benchmark.json`` within its tolerance.

Human-readable lines come first, the environment on the line starting with
``env``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from hashlib import sha256
from pathlib import Path

from tracing import Tracer
from workloads import ROUNDS_PER_SET, WORKLOADS, expected_digests, input_set, prepare, round_config

ROOT = Path(__file__).resolve().parent.parent
TRACED_SETUP_REPS = 3
# A single reference load_store lasts a few ms; timing calls until this much
# has passed makes each set-up sample long enough to be steady.
SETUP_SAMPLE_S = 0.05
GOLDEN_PATH = ROOT / "tests" / "golden" / "reference_benchmark.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_library():
    """Import ``tafssl`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tafssl" / "__init__.py").is_file():
        raise SystemExit(f"error: no tafssl sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import tafssl

    if Path(tafssl.__file__).resolve().parent != (src / "tafssl").resolve():
        raise SystemExit(f"error: imported tafssl from {tafssl.__file__}, not from {src}")


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (Linux: KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def git_sha() -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, workload, input_set_index: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
        "workload": workload.name,
        "seed": args.seed,
        "input_set": input_set_index,
        "seconds": args.seconds,
        "episodes_per_round": workload.episodes,
        "workers": workload.workers,
    }


class Run:
    """One workload run: set-up, rounds with output checks, optional tracing."""

    def __init__(self, workload, input_set_index: int, workdir: Path, tracer=None):
        self.workload = workload
        self.input_set = input_set_index
        self.workdir = workdir
        self.tracer = tracer
        self.base = prepare(workload, input_set_index, workdir)
        self.digests = expected_digests(workload, input_set_index)
        self.attempted = 0
        self.failures: list[str] = []
        self.store = None

    def setup(self, min_seconds: float, traced: bool = False) -> float:
        """Call ``harness.load_store`` until ``min_seconds`` have passed, at
        least once; returns the mean seconds per call and keeps the last store."""
        from tafssl import harness

        calls, elapsed = 0, 0.0
        while calls == 0 or elapsed < min_seconds:
            # Release the previous store first, so that every load meets the
            # same allocator state rather than alternating between two.
            self.store = None
            with self._traced(traced):
                t0 = time.perf_counter()
                self.store = harness.load_store(self.base)
                elapsed += time.perf_counter() - t0
            calls += 1
        return elapsed / calls

    def round(self, index: int, traced: bool = False) -> dict | None:
        """Run and check one round; returns its timings and reports, or None
        when it raised.  A wrong output is recorded as a failure but keeps
        its timings."""
        from tafssl import harness

        self.attempted += 1
        config = round_config(self.base, self.input_set, index)
        csv_path = self.workdir / "round.csv"
        try:
            with self._traced(traced):
                cpu0, t0 = cpu_seconds(), time.perf_counter()
                reports = harness.run_benchmark(config, store=self.store)
                wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
                harness.write_csv(csv_path, [(None, reports)])
            digest = sha256(csv_path.read_bytes()).hexdigest()
        except Exception:
            self.failures.append(f"round {index} raised:\n{traceback.format_exc()}")
            return None
        expected = self.digests[index % ROUNDS_PER_SET]
        if digest != expected:
            self.failures.append(f"round {index} (seed {config.seed}): CSV sha256 {digest}, expected {expected}")
        return {"wall": wall, "cpu": cpu, "reports": reports}

    def golden_check(self) -> None:
        """Run the golden configuration and compare its accuracies with the
        frozen file, within the file's own tolerance.  It costs as much as
        1000 reference episodes, so only the traced run makes it."""
        from tafssl import harness
        from tafssl.episodes import REFERENCE_CLASSES, REFERENCE_PER_CLASS, REFERENCE_STORE_SEED, reference_mog_spec

        self.attempted += 1
        golden = json.loads(GOLDEN_PATH.read_text())
        cfg = golden["config"]
        store_spec = dict(vars(reference_mog_spec()), classes=REFERENCE_CLASSES, per_class=REFERENCE_PER_CLASS, seed=REFERENCE_STORE_SEED)
        if cfg["store"] != store_spec:
            self.failures.append(f"golden store {cfg['store']} is not the built-in reference store {store_spec}")
            return
        config = harness.BenchmarkConfig(
            method=",".join(golden["accuracy"]),
            mode=cfg["mode"],
            ways=cfg["ways"],
            shots=cfg["shots"],
            queries=cfg["queries"],
            episodes=cfg["episodes"],
            seed=cfg["seed"],
            synthetic="reference",
        )
        try:
            reports = harness.run_benchmark(config, store=self.store)
        except Exception:
            self.failures.append(f"golden run raised:\n{traceback.format_exc()}")
            return
        tolerance = golden["tolerance_points"]
        wrong = [
            f"{rep.method} {rep.accuracy:.4f} (golden {golden['accuracy'][rep.method]:.4f})"
            for rep in reports
            if abs(rep.accuracy - golden["accuracy"][rep.method]) > tolerance
        ]
        if wrong:
            self.failures.append(f"golden accuracies off by more than {tolerance} points: {', '.join(wrong)}")

    @contextmanager
    def _traced(self, traced: bool):
        """Trace the block when ``traced``; no-op otherwise."""
        if self.tracer is None or not traced:
            yield
            return
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """Rounds cycle through the input set's episode seeds until ``seconds``
    have passed, each seed at least once, and a set-up sample precedes every
    round.  Every metric is the median over rounds (set-up samples for
    ``setup_s``)."""
    episodes = run.workload.episodes
    rates, cpu_ms, setup_times = [], [], []
    start = time.perf_counter()
    index = 0
    while index < ROUNDS_PER_SET or time.perf_counter() - start < seconds:
        setup_times.append(run.setup(SETUP_SAMPLE_S))
        result = run.round(index)
        index += 1
        if result is not None:
            rates.append(episodes / result["wall"])
            cpu_ms.append(result["cpu"] / episodes * 1000.0)
    if not rates:
        return {}
    q1, median, q3 = statistics.quantiles(rates, n=4)
    print(f"episodes_per_s over {len(rates)} rounds of {episodes} episodes: median {median:.4g}, quartiles {q1:.4g} .. {q3:.4g}")
    return {
        "episodes_per_s": median,
        "cpu_ms_per_episode": statistics.median(cpu_ms),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run: Run, method_names: list[str]) -> dict[str, float]:
    """One pass over the input set's episode seeds, each round once untraced
    and once traced.  Span metrics come from the traced rounds; the counters
    the harness reports itself come from the untraced ones."""
    for _ in range(TRACED_SETUP_REPS):
        run.setup(0.0, traced=True)
    workers = run.workload.workers
    overheads, utils, per_method, warnings = [], [], {m: [] for m in method_names}, 0
    for index in range(ROUNDS_PER_SET):
        # The second of the pair meets caches the first has warmed, so which
        # one goes first alternates, and the warm-up cancels in the median.
        if index % 2:
            traced = run.round(index, traced=True)
            plain = run.round(index)
        else:
            plain = run.round(index)
            traced = run.round(index, traced=True)
        if plain is None or traced is None:
            continue
        overheads.append(traced["wall"] / plain["wall"] - 1.0)
        reports = plain["reports"]
        busy = sum(rep.seconds_per_episode * rep.episodes for rep in reports)
        utils.append(busy / (plain["wall"] * workers))
        for rep in reports:
            per_method[rep.method].append(rep.seconds_per_episode * 1000.0)
        # RunReport.metadata["warnings"] is a run-wide total repeated in every
        # method's report, so it is read once per round.
        warnings += reports[0].metadata["warnings"]
    if run.workload.name == "reference":
        run.golden_check()
    if not overheads:
        return {}
    metrics = run.tracer.span_metrics()
    for method, values in per_method.items():
        metrics[f"harness.ms_per_episode.{method}"] = statistics.median(values) if values else 0.0
    metrics["harness.worker_util"] = statistics.median(utils)
    metrics["harness.warnings"] = float(warnings)
    metrics["harness.trace_overhead_frac"] = statistics.median(overheads)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_library()

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    index = input_set(args.seed)
    level = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[level]}
    env = environment(args, workload, index)
    print("env " + json.dumps(env, sort_keys=True))

    workroot = ROOT / "perfbench" / "_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workroot))
    try:
        run = Run(workload, index, workdir, Tracer() if args.trace else None)
        if args.trace:
            all_methods = [name.rsplit(".", 1)[1] for name in units if name.startswith("harness.ms_per_episode.")]
            metrics = per_layer(run, all_methods)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if not metrics:
        print("error: no round completed", file=sys.stderr)
        return 1
    problems = run.tracer.check_spans() if args.trace else []
    for problem in problems[:20]:
        print(f"span check: {problem}", file=sys.stderr)
    if args.trace:
        modules = run.tracer.module_self_ms()
        print("self_ms by module " + json.dumps({k: round(v, 3) for k, v in modules.items()}))
        print(f"top self-time module: {next(iter(modules))}")
    if set(metrics) != set(units):
        raise SystemExit(f"error: emitted metrics differ from BENCHMARK.json {level}: {sorted(set(metrics) ^ set(units))}")
    for name in units:
        print(f"{workload.name:14s} {name:45s} {metrics[name]:>14.6g} {units[name]}")
    print(f"{workload.name:14s} {'failed_frac':45s} {len(run.failures) / run.attempted:>14.6g} frac ({len(run.failures)}/{run.attempted} runs)")
    result = {
        "correct": not run.failures and not problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
