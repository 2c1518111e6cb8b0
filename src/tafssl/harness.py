"""Benchmark harness: pipeline staging and the episode loop.

A pipeline runs in two stages, project then infer: :class:`EpisodeProjections`
stages the episode's subspace views, shared by every pipeline that asks for
the same one, and the pipeline's head, a library function, decides.  The
harness samples episodes from a feature store, runs every requested pipeline
on each episode and scores the query predictions against the held-back
labels (classifiers never see them).  :func:`run_ablation` is the one
driver: it runs every row of a config's table on one BLAS thread and, with
``workers`` > 1, in one pool; only a run that starts a pool imports the pool
machinery (``multiprocessing``).  :func:`run_benchmark` is its table of one
row.

Determinism contract: (config, seed) fully determines every number in the
reports, independent of the worker count.  Episode i draws its randomness
from (seed, i) alone, and per-episode results are aggregated in episode
order.
"""

from __future__ import annotations

import time
import warnings
from contextlib import nullcontext

import numpy as np

from tafssl.config import PROTOCOL_FIELDS, BenchmarkConfig, MethodPipeline, read_mixture_file
from tafssl.episodes import Episode, FeatureStore, reference_store, sample_episode
from tafssl.features_io import load_features
from tafssl.linalg import set_blas_threads, single_blas_thread
from tafssl.report import RunReport, write_csv
# ``fit_ica`` is not called here; perfbench's tracer test patches it as ``harness.fit_ica``.
from tafssl.subspace import PoolDecomposition, fit_ica

__all__ = [
    "EpisodeProjections",
    "evaluate_episode",
    "load_store",
    "run_ablation",
    "run_benchmark",
]


class EpisodeProjections:
    """One episode's sets and every subspace view of them.

    :meth:`view` hands a pipeline the (support, queries, pool) its head
    sees: the raw sets (the pool is the episode's own buffer) when it does
    not project, otherwise the sets mapped into its subspace.  The first
    pipeline that projects decomposes the pool, to the largest r any of
    ``pipelines`` asks for, and centers each set once: S, and Q in
    transductive mode, are row slices of the centered pool, and semi-mode Q
    is centered on the pool mean.  A (projection, r) view is then one
    product per set, shared by every pipeline using it (``pca-nn`` and
    ``pca-bkm`` share one).
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


def evaluate_episode(episode: Episode, pipeline: MethodPipeline, seed: tuple, projections: EpisodeProjections | None = None) -> np.ndarray:
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
    return pipeline.head(S, episode.support_labels, Q, pool, (*seed, 2))


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


def _pool_init(store):
    # One BLAS thread per worker, for the worker's life; the parent warns
    # once per run if BLAS cannot be pinned.
    set_blas_threads(1)
    _POOL_STATE["store"] = store


def _pool_eval(task):
    return _run_one_episode(_POOL_STATE["store"], *task)  # task: (config, pipelines, index)


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
    This is :func:`run_ablation` of a config that names no sweep."""
    if config.sweep is not None:
        raise ValueError(f"run_benchmark runs no sweep; pass the {config.sweep} sweep to run_ablation")
    return run_ablation(config, store=store)[0][1]


def run_ablation(config: BenchmarkConfig, store: FeatureStore | None = None) -> list[tuple[int | None, list[RunReport]]]:
    """The results table of a run: the full benchmark once per row of
    :meth:`BenchmarkConfig.table`, that is per value of the protocol knob
    ``config.sweep`` names, or once for ``config`` itself as the value
    ``None``.  Every row is checked, on its own and then against the store,
    before the first episode runs.

    All methods see the same episodes (episode i is determined by (seed, i)
    alone), so cross-method comparisons are paired, and sweep values share
    classes and supports where the protocol permits (notably the unbalance
    sweep, whose query sets are nested).  Every value runs on one BLAS
    thread (:func:`single_blas_thread`), and in one pool, shared by every
    value, of at most ``episodes`` workers when ``workers`` > 1, so a run of
    one episode starts none.  Only a run that starts a pool imports the pool
    machinery.  The process's BLAS thread count is restored when the run
    ends.  A finished run writes its table to ``config.out``, if set.
    """
    rows = config.table()
    if store is None:
        store = load_store(config)
    for _, cfg, _ in rows:
        cfg.check_store(store)

    table = []
    workers = min(config.workers, config.episodes)  # a worker past the episode count would never get one
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never loads multiprocessing
    with single_blas_thread(), (
        ProcessPoolExecutor(max_workers=workers, initializer=_pool_init, initargs=(store,)) if workers > 1 else nullcontext()
    ) as pool:
        for value, cfg, pipes in rows:
            indices = range(cfg.episodes)
            if pool is None:
                results = [_run_one_episode(store, cfg, pipes, i) for i in indices]
            else:
                results = list(pool.map(_pool_eval, [(cfg, pipes, i) for i in indices], chunksize=max(1, cfg.episodes // (4 * workers))))
            # Both loops return results in episode order.
            acc, times, warns = (np.array(column) for column in zip(*results))  # each episodes x methods
            spec, reports = cfg.episode_spec(0), []  # holds the checked settings; cfg keeps the caller's values
            for j, pipeline in enumerate(pipes):
                metadata = {"seed": spec.seed[0], **{key: getattr(spec, key) for key in PROTOCOL_FIELDS}, "dim": pipeline.r, "warnings": int(warns[:, j].sum())}
                reports.append(RunReport(pipeline.name, cfg.mode, tuple(acc[:, j].tolist()), float(times[:, j].mean()), metadata))
            table.append((value, reports))
    if config.out:
        write_csv(config.out, table, config.sweep)
    return table
