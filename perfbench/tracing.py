"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function by a wrapper at every
``tafssl`` module attribute that holds it: the defining module and every
module that imported the name (``tafssl.harness.fit_pca``,
``tafssl.cluster.pairwise_sqdist``, ...).  ``uninstall`` puts the originals
back.  No source file of the library changes.

A span records (function, parent span, start, end, time covered by its
children).  Spans stay in memory until the run ends.  Self time is a
span's duration minus the time its child spans cover.  Calls made in forked
pool workers pass straight through: their spans are out of scope.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

TRACED = {
    "episodes": ("sample_episode", "generate_mog_store"),
    "features_io": ("load_features",),
    "subspace": ("fit_pca", "whiten", "fit_ica", "SubspaceProjection.apply"),
    "classify": ("build_prototypes", "nn_classify"),
    "cluster": ("kmeans", "bkm", "bkm_from_centroids", "msp"),
    "linalg": ("pairwise_sqdist", "softmax_rows"),
    "harness": ("load_store", "run_benchmark", "evaluate_episode", "write_csv"),
}
FUNCTIONS = [f"{module}.{name}" for module, names in TRACED.items() for name in names]

# Span record fields (a list, so the end and child time can be filled in).
FID, PARENT, START, END, CHILD_NS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list[int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._hooks = {
            "subspace.fit_pca": self._on_subspace_fit,
            "subspace.fit_ica": self._on_subspace_fit,
            "cluster.kmeans": self._on_kmeans,
            "cluster.msp": self._on_msp,
            "features_io.load_features": self._on_load_features,
        }

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name == "tafssl" or name.startswith("tafssl.")]
        for fid, qualified in enumerate(FUNCTIONS):
            module_name, _, attr = qualified.partition(".")
            owner = sys.modules[f"tafssl.{module_name}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, _, method = attr.partition(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(fid, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(fid, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)

    def _patch(self, holder, name: str, wrapper) -> None:
        self._patched.append((holder, name, getattr(holder, name)))
        setattr(holder, name, wrapper)

    def _wrap(self, fid: int, fn):
        spans, stack, pid = self.spans, self._stack, self._pid
        hook = self._hooks.get(FUNCTIONS[fid])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            record = [fid, parent, perf_counter_ns(), 0, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = end = perf_counter_ns()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_NS] += end - record[START]
            if hook is not None:
                hook(args, result, end - record[START])
            return result

        return wrapper

    # -- counters read from return values ----------------------------------

    def _on_subspace_fit(self, args, result, ns) -> None:
        meta = result.meta
        if "r_reduced" in meta:
            self.counters["subspace.r_reduced"] += 1
        if result.method == "ica":
            self.counters["ica_converged"] += bool(meta["converged"])
            self.counters["ica_iterations"] += meta["iterations"]

    def _on_kmeans(self, args, result, ns) -> None:
        if "k_reduced" in result.meta:
            self.counters["cluster.kmeans.k_reduced"] += 1

    def _on_msp(self, args, result, ns) -> None:
        self.counters["cluster.msp.k0_rounds"] += sum(1 for k in result.k_history if k == 0)

    def _on_load_features(self, args, result, ns) -> None:
        self.counters["load_bytes"] += os.path.getsize(args[0])
        self.counters["load_ns"] += ns

    # -- results -----------------------------------------------------------

    def check_spans(self) -> list[str]:
        """Problems with span structure: open spans, children outside their
        parent's interval, negative self time.  Empty when sound."""
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} span(s) still open")
        for i, (fid, parent, start, end, child_ns) in enumerate(self.spans):
            name = FUNCTIONS[fid]
            if end < start:
                problems.append(f"span {i} ({name}) ends before it starts")
            if end - start - child_ns < 0:
                problems.append(f"span {i} ({name}) has negative self time")
            if parent >= 0:
                p = self.spans[parent]
                if not (parent < i and p[START] <= start and end <= p[END]):
                    problems.append(f"span {i} ({name}) lies outside its parent {parent} ({FUNCTIONS[p[FID]]})")
        return problems

    def span_metrics(self) -> dict[str, float]:
        """``<module>.<function>.{calls,self_ms,p50_us,p99_us}`` plus the
        counters taken from return values.  Percentiles are of inclusive
        call durations; a function never called reports 0."""
        durations: dict[int, list[int]] = defaultdict(list)
        self_ns: dict[int, int] = defaultdict(int)
        for fid, _, start, end, child_ns in self.spans:
            durations[fid].append(end - start)
            self_ns[fid] += end - start - child_ns
        out: dict[str, float] = {}
        for fid, name in enumerate(FUNCTIONS):
            d = np.asarray(durations[fid], dtype=float)
            out[f"{name}.calls"] = float(d.size)
            out[f"{name}.self_ms"] = self_ns[fid] / 1e6
            out[f"{name}.p50_us"] = float(np.percentile(d, 50)) / 1e3 if d.size else 0.0
            out[f"{name}.p99_us"] = float(np.percentile(d, 99)) / 1e3 if d.size else 0.0
        c = self.counters
        ica_fits = out["subspace.fit_ica.calls"]
        out["subspace.fit_ica.converged_frac"] = c["ica_converged"] / ica_fits if ica_fits else 0.0
        out["subspace.fit_ica.iterations_mean"] = c["ica_iterations"] / ica_fits if ica_fits else 0.0
        out["subspace.r_reduced"] = c["subspace.r_reduced"]
        out["cluster.kmeans.k_reduced"] = c["cluster.kmeans.k_reduced"]
        out["cluster.msp.k0_rounds"] = c["cluster.msp.k0_rounds"]
        out["features_io.load_features.mb_per_s"] = c["load_bytes"] / 1e6 / (c["load_ns"] / 1e9) if c["load_ns"] else 0.0
        return out

    def module_self_ms(self) -> dict[str, float]:
        """Self time per module, largest first."""
        totals: dict[str, float] = defaultdict(float)
        for fid, _, start, end, child_ns in self.spans:
            totals[FUNCTIONS[fid].split(".", 1)[0]] += (end - start - child_ns) / 1e6
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))
