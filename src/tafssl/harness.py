"""Benchmark harness: pipeline staging, the episode loop, statistics and output.

The settings of a run, its method pipelines and their checks live in
``tafssl.config``.  A pipeline runs in two stages, project then infer:
:class:`EpisodeProjections` stages the episode's subspace views, shared by
every pipeline that asks for the same one, and the pipeline's head, a
library function, decides.  The harness samples episodes from a feature
store, runs every requested pipeline on each episode, scores the query
predictions against the held-back labels (classifiers never see them), and
aggregates per-episode accuracies into a mean with a 0.95
normal-approximation confidence interval, then formats or writes them.

Determinism contract: (config, seed) fully determines every number in the
reports and in the CSV output, independent of the worker count.  Episode i
draws its randomness from (seed, i) alone, per-episode results are
aggregated in episode order, and wall-clock timings stay out of the CSV.
"""

from __future__ import annotations

import csv
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from tafssl.config import PROTOCOL_FIELDS, SWEEP_FIELDS, SWEEP_VALUES, BenchmarkConfig, MethodPipeline, read_mixture_file
from tafssl.episodes import Episode, FeatureStore, reference_store, sample_episode
from tafssl.features_io import load_features
from tafssl.linalg import set_blas_threads, single_blas_thread
# ``fit_ica`` is not called here; perfbench's tracer test patches it as ``harness.fit_ica``.
from tafssl.subspace import PoolDecomposition, fit_ica

__all__ = [
    "EpisodeProjections",
    "RunReport",
    "evaluate_episode",
    "format_reports",
    "load_store",
    "run_ablation",
    "run_benchmark",
    "write_csv",
]


@dataclass(frozen=True)
class RunReport:
    """Aggregated accuracy of one method over one episode batch."""

    method: str
    mode: str
    episodes: int
    accuracy: float  # percent
    ci95: float  # percent, half-width 1.96 * std / sqrt(episodes)
    seconds_per_episode: float
    metadata: dict = field(default_factory=dict)


def _confidence_interval(per_episode: np.ndarray) -> tuple[float, float]:
    """Mean accuracy and 0.95 CI half-width, in percent.

    The spread estimate is the population std of per-episode accuracies, so
    a single episode reports a zero-width interval.
    """
    mean = float(per_episode.mean()) * 100.0
    half = float(1.96 * per_episode.std(ddof=0) / np.sqrt(len(per_episode)) * 100.0)
    return mean, half


class EpisodeProjections:
    """One episode's sets and every subspace view of them.

    :meth:`view` hands a pipeline the (support, queries, pool) its head
    sees: the raw sets (the pool is the episode's own buffer) when it does
    not project, otherwise the sets mapped into its subspace.  The first
    pipeline that projects decomposes the pool, to the largest r any of
    ``pipelines`` asks for, and centers each set once: S, and Q in
    transductive mode, are row slices of the centered pool.  A (projection,
    r) view is then one product per set, shared by every pipeline using it.
    """

    def __init__(self, episode: Episode, pipelines):
        self.raw = (episode.support, episode.query, episode.pool)
        self.transductive = episode.unlabeled.shape[0] == 0
        self.r_max = max((p.r for p in pipelines if p.projection != "none"), default=0)
        self._decomposition: PoolDecomposition | None = None
        self._centered: tuple = ()
        self._views: dict = {}

    def view(self, pipeline: MethodPipeline) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if pipeline.projection == "none":
            return self.raw
        key = (pipeline.projection, pipeline.r)
        if key not in self._views:
            fit = self._decompose().project(*key)
            # One product per set: rows sliced from the projected pool differ in the last bits.
            self._views[key] = tuple(X @ fit.W.T for X in self._centered)
        return self._views[key]

    def _decompose(self) -> PoolDecomposition:
        if self._decomposition is None:
            S, Q, pool = self.raw
            d = self._decomposition = PoolDecomposition(pool, self.r_max)
            n_s = S.shape[0]
            self._centered = (d.centered[:n_s], d.centered[n_s:] if self.transductive else Q - d.mean, d.centered)
        return self._decomposition


def evaluate_episode(episode: Episode, pipeline: MethodPipeline, seed=0, projections: EpisodeProjections | None = None) -> np.ndarray:
    """Run one pipeline on one episode; returns query predictions.

    The stages are project (the pipeline's view of the episode) and infer
    (the head).  Query labels are deliberately absent from this path:
    scoring happens in the caller.  The head draws its randomness (the
    k-means init) from ``(*seed, 2)``.  Pipelines run on the same episode
    share its ``projections``, made for that episode; without them the
    pipeline fits its own.
    """
    if projections is None:
        projections = EpisodeProjections(episode, [pipeline])
    S, Q, pool = projections.view(pipeline)
    return pipeline.head(S, episode.support_labels, Q, pool, _derive_seed(seed, 2))


def _derive_seed(seed, salt: int):
    if isinstance(seed, tuple):
        return (*seed, salt)
    return (seed, salt)


def _run_one_episode(store, config: BenchmarkConfig, pipelines, index: int):
    """Sample episode ``index`` and score every pipeline on it.

    Returns (accuracies, seconds, warning counts), one entry per pipeline.
    A shared view, and the pool decomposition, are timed and their warnings
    counted in the first pipeline that needs them.
    """
    episode = sample_episode(store, config.episode_spec(index))
    seed = (config.seed, index)
    projections = EpisodeProjections(episode, pipelines)
    accs, times, warns = [], [], []
    for pipeline in pipelines:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            predictions = evaluate_episode(episode, pipeline, seed=seed, projections=projections)
            times.append(time.perf_counter() - t0)
        warns.append(len(caught))
        accs.append(float((predictions == episode.query_labels).mean()))
    return accs, times, warns


_POOL_STATE: dict = {}


def _pool_init(store, config, pipelines):
    # One BLAS thread per worker, for the worker's life; the parent warns
    # once per run if BLAS cannot be pinned.
    set_blas_threads(1)
    _POOL_STATE["args"] = (store, config, pipelines)


def _pool_eval(index: int):
    store, config, pipelines = _POOL_STATE["args"]
    return _run_one_episode(store, config, pipelines, index)


def load_store(config: BenchmarkConfig) -> FeatureStore:
    """Resolve the configured feature source into a FeatureStore."""
    if config.features and config.synthetic:
        raise ValueError("give either --features or --synthetic, not both")
    if config.features:
        return load_features(config.features)
    if config.synthetic:
        if config.synthetic == "reference":
            return reference_store()
        return read_mixture_file(config.synthetic)
    raise ValueError("no feature source: pass --features <path> or --synthetic <config|reference>")


def run_benchmark(config: BenchmarkConfig, store: FeatureStore | None = None) -> list[RunReport]:
    """Run every configured method over the episode batch; one report each.

    All methods see the same episodes (episode i is determined by (seed, i)
    alone), so cross-method comparisons are paired.  The config is checked
    against the store before any episode runs.  The episode loop, and each
    pool worker (at most one per episode), runs on one BLAS thread; the
    process's BLAS thread count is restored when the run ends.
    """
    pipelines = config.pipelines()
    if store is None:
        store = load_store(config)
    config.check_store(store)

    indices = range(config.episodes)
    workers = min(config.workers, config.episodes)  # a worker past the episode count would never get one
    with single_blas_thread():
        if workers > 1:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_pool_init,
                initargs=(store, config, pipelines),
            ) as pool:
                results = list(pool.map(_pool_eval, indices, chunksize=max(1, config.episodes // (4 * workers))))
        else:
            results = [_run_one_episode(store, config, pipelines, i) for i in indices]

    # Both loops return results in episode order.
    acc, times, warns = (np.array(column) for column in zip(*results))  # each episodes x methods

    reports = []
    for j, pipeline in enumerate(pipelines):
        mean, half = _confidence_interval(acc[:, j])
        reports.append(
            RunReport(
                method=pipeline.name,
                mode=config.mode,
                episodes=config.episodes,
                accuracy=mean,
                ci95=half,
                seconds_per_episode=float(times[:, j].mean()),
                metadata={
                    **{key: getattr(config, key) for key in ("seed", *PROTOCOL_FIELDS)},
                    "dim": pipeline.r,
                    "warnings": int(warns[:, j].sum()),
                },
            )
        )
    return reports


def run_ablation(config: BenchmarkConfig, values=None, store: FeatureStore | None = None) -> list[tuple[int, list[RunReport]]]:
    """Sweep the protocol knob ``config.sweep`` names, running the full
    benchmark per value (``SWEEP_VALUES`` unless ``values`` is given).
    Every swept config is checked against the store before the first runs.

    Episode randomness is derived per episode index from the base seed, so
    sweep values share classes and supports where the protocol permits
    (notably the unbalance sweep, whose query sets are nested).
    """
    config.pipelines()  # every setting is checked before the store loads
    values = [int(v) for v in (SWEEP_VALUES[config.sweep] if values is None else values)]
    configs = [replace(config, **{SWEEP_FIELDS[config.sweep]: v}) for v in values]
    if store is None:
        store = load_store(config)
    for cfg in configs:
        cfg.check_store(store)
    return [(v, run_benchmark(cfg, store=store)) for v, cfg in zip(values, configs)]


def format_reports(table: list[tuple[int | None, list[RunReport]]], sweep: str | None = None) -> str:
    """Human-readable aligned table; one row per (sweep value, method),
    then a line naming each report that counted warnings, if any did."""
    rows = [("sweep", "value", "method", "mode", "episodes", "accuracy", "ci95", "s/episode")]
    for value, reports in table:
        for rep in reports:
            rows.append(
                (
                    sweep or "-",
                    "-" if value is None else str(value),
                    rep.method,
                    rep.mode,
                    str(rep.episodes),
                    f"{rep.accuracy:.2f}",
                    f"±{rep.ci95:.2f}",
                    f"{rep.seconds_per_episode:.4f}",
                )
            )
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    if sweep == "dim":
        best = max(((rep.accuracy, value) for value, reports in table for rep in reports), default=None)
        if best is not None:
            lines.append(f"best dim by accuracy: {best[1]} ({best[0]:.2f}%)")
    # The episode loop records every warning, so this line is where they show.
    warned = [
        f"{rep.method}{'' if value is None else f' ({sweep} {value})'} {rep.metadata['warnings']}"
        for value, reports in table
        for rep in reports
        if rep.metadata.get("warnings")
    ]
    if warned:
        lines.append(f"warnings: {', '.join(warned)}")
    return "\n".join(lines)


CSV_COLUMNS = ["sweep", "value", "method", "mode", *PROTOCOL_FIELDS, "episodes", "seed", "dim", "accuracy", "ci95"]


def write_csv(path, table: list[tuple[int | None, list[RunReport]]], sweep: str | None = None) -> None:
    """Machine-readable results.  Contains only deterministic fields, so two
    runs with the same config and seed produce byte-identical files
    regardless of the worker count."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for value, reports in table:
            for rep in reports:
                row = {
                    **rep.metadata,
                    "sweep": sweep or "",
                    "value": "" if value is None else value,
                    "method": rep.method,
                    "mode": rep.mode,
                    "episodes": rep.episodes,
                    "dim": "" if rep.metadata["dim"] is None else rep.metadata["dim"],
                    "accuracy": f"{rep.accuracy:.6f}",
                    "ci95": f"{rep.ci95:.6f}",
                }
                writer.writerow([row[column] for column in CSV_COLUMNS])
