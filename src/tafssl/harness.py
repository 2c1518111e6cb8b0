"""Benchmark harness: pipelines, the episode loop, statistics, and sweeps.

A method pipeline is a projection and an inference head, assembled from a
CLI name such as ``ica-msp``; it runs in two stages, project then infer.
The heads are library functions, ``nn``, ``sub`` and ``sub_star`` in
``classify`` and ``bkm_predict`` and ``msp_predict`` in ``cluster``, and
the harness only calls them.  The harness samples episodes from a feature
store, runs every requested pipeline on each episode, scores the query
predictions against the held-back labels (classifiers never see them), and
aggregates per-episode accuracies into a mean with a 0.95
normal-approximation confidence interval.

Determinism contract: (config, seed) fully determines every number in the
reports and in the CSV output, independent of the worker count.  Episode i
draws its randomness from (seed, i) alone, per-episode results are
aggregated in episode order, and wall-clock timings stay out of the CSV.
"""

from __future__ import annotations

import csv
import time
import warnings
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial

import numpy as np

from tafssl.classify import nn, sub, sub_star
from tafssl.cluster import bkm_predict, msp_predict
from tafssl.episodes import Episode, EpisodeSpec, FeatureStore, MoGSpec, generate_mog_store, reference_store, sample_episode
from tafssl.features_io import load_features
from tafssl.linalg import set_blas_threads, single_blas_thread
# ``fit_ica`` is not called here; perfbench's tracer test patches it as ``harness.fit_ica``.
from tafssl.subspace import ICA_DEFAULT_DIM, PCA_DEFAULT_DIM, PoolDecomposition, fit_ica

__all__ = [
    "BenchmarkConfig",
    "EpisodeProjections",
    "METHODS",
    "MethodPipeline",
    "RunReport",
    "SWEEP_VALUES",
    "boolean",
    "evaluate_episode",
    "field_parsers",
    "format_reports",
    "load_store",
    "parse_config_file",
    "parse_method",
    "run_ablation",
    "run_benchmark",
    "write_csv",
]

# CLI method name -> (projection, inference head).  ``ica-*`` whitens:
# FastICA's unmixing only rotates the whitened pool (Hyvarinen & Oja 2000),
# and every head decides from distances and means, which no rotation changes.
# A head is named after its projection-free method, ``_`` for ``-``.
METHODS = {
    "nn": ("none", nn),
    "sub": ("none", sub),
    "sub-star": ("none", sub_star),
    "pca-nn": ("pca", nn),
    "ica-nn": ("whiten", nn),
    "pca-bkm": ("pca", bkm_predict),
    "ica-bkm": ("whiten", bkm_predict),
    "pca-msp": ("pca", msp_predict),
    "ica-msp": ("whiten", msp_predict),
    "bkm": ("none", bkm_predict),
    "msp": ("none", msp_predict),
}
_DEFAULT_DIMS = {"pca": PCA_DEFAULT_DIM, "whiten": ICA_DEFAULT_DIM}

SWEEP_VALUES = {
    "queries": [2, 5, 10, 15, 20, 30, 50],
    "noise": [0, 1, 2, 3, 4, 5, 6, 7],
    "dim": [2, 3, 4, 5, 6, 8, 10, 12, 15, 20],
    "unbalance": [0, 10, 20, 30, 40, 50],
}

# The BenchmarkConfig field each sweep varies.
_SWEEP_FIELDS = {"queries": "queries", "noise": "distractors", "dim": "dim", "unbalance": "unbalanced_r"}


@dataclass(frozen=True)
class MethodPipeline:
    """One classification pipeline: a projection and an inference head.

    ``head`` is called as ``head(S, support_labels, Q, pool, seed)``; the
    sub heads carry their ``normalize_first`` setting bound."""

    name: str
    projection: str  # none | pca | whiten
    r: int | None
    head: Callable


def parse_method(name: str, dim: int | None = None, sub_normalize_first: bool = True) -> MethodPipeline:
    """Build a pipeline from a CLI method name like ``pca-bkm``; ``dim``
    overrides the default subspace size of its projection."""
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}; choose from {', '.join(METHODS)}")
    if dim is not None and dim < 1:
        raise ValueError("dim must be >= 1")
    projection, head = METHODS[name]
    r = None if projection == "none" else dim or _DEFAULT_DIMS[projection]
    if head in (sub, sub_star):
        head = partial(head, normalize_first=sub_normalize_first)
    return MethodPipeline(name, projection, r, head)


def _setting(default, help_text: str):
    """A BenchmarkConfig field: its default, and the help text of its flag."""
    return field(default=default, metadata={"help": help_text})


@dataclass
class BenchmarkConfig:
    """Flat run configuration.  Each field is one config-file key and one CLI
    flag of the same name (``-`` for ``_``), both parsed by :func:`field_parsers`."""

    method: str = _setting("nn", f"comma-separated list from: {', '.join(METHODS)}")
    mode: str = _setting("transductive", "unlabeled pool source: transductive or semi")
    ways: int = _setting(5, "classes per episode")
    shots: int = _setting(1, "support samples per class")
    queries: int = _setting(15, "query samples per class")
    unlabeled: int = _setting(0, "semi mode: unlabeled samples per class")
    distractors: int = _setting(0, "semi mode: extra unlabeled-only classes")
    unbalanced_r: int = _setting(0, "per-class extra queries ~ uniform[0,R]")
    episodes: int = _setting(10000, "episode count")
    seed: int = _setting(0, "master seed")
    dim: int | None = _setting(None, f"subspace dimension; when unset, pca {PCA_DEFAULT_DIM} and ica {ICA_DEFAULT_DIM}")
    features: str | None = _setting(None, "feature store file, .csv or binary")
    synthetic: str | None = _setting(None, "mixture-of-Gaussians config file path, or 'reference'")
    sweep: str | None = _setting(None, f"run an ablation sweep instead of a single benchmark: {', '.join(SWEEP_VALUES)}")
    out: str | None = _setting(None, "results CSV path")
    workers: int = _setting(1, "parallel episode workers")
    sub_normalize_first: bool = _setting(True, "sub/sub-star baselines: L2-normalize samples before prototype averaging")

    def methods(self) -> list[str]:
        return [m.strip() for m in self.method.split(",") if m.strip()]

    def pipelines(self) -> list[MethodPipeline]:
        """The configured pipelines.  This is the one check a config gets
        before a run: it raises ValueError for any setting the run would
        reject, without touching the feature source."""
        for name, bound in (("episodes", 1), ("workers", 1), ("seed", 0)):
            if getattr(self, name) < bound:
                raise ValueError(f"{name} must be >= {bound}")
        self.episode_spec(0)  # EpisodeSpec holds the protocol and mode rules
        names = self.methods()
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"method {name!r} is given more than once")
        pipes = [parse_method(m, self.dim, self.sub_normalize_first) for m in names]
        for p in pipes:
            if METHODS[p.name][1] in (sub, sub_star) and self.mode != "transductive":
                raise ValueError(f"method {p.name!r} is defined on the support+query pool and requires transductive mode")
        if not pipes:
            raise ValueError("no method given")
        return pipes

    def episode_spec(self, index: int) -> EpisodeSpec:
        return EpisodeSpec(**{key: getattr(self, key) for key in _PROTOCOL_FIELDS}, mode=self.mode, seed=(self.seed, index))


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
        return _store_from_mog_config(config.synthetic)
    raise ValueError("no feature source: pass --features <path> or --synthetic <config|reference>")


def run_benchmark(config: BenchmarkConfig, store: FeatureStore | None = None) -> list[RunReport]:
    """Run every configured method over the episode batch; one report each.

    All methods see the same episodes (episode i is determined by (seed, i)
    alone), so cross-method comparisons are paired.  The episode loop, and
    each pool worker, runs on one BLAS thread; the process's BLAS thread
    count is restored when the run ends.
    """
    pipelines = config.pipelines()
    if store is None:
        store = load_store(config)

    indices = range(config.episodes)
    with single_blas_thread():
        if config.workers > 1:
            with ProcessPoolExecutor(
                max_workers=config.workers,
                initializer=_pool_init,
                initargs=(store, config, pipelines),
            ) as pool:
                results = list(pool.map(_pool_eval, indices, chunksize=max(1, config.episodes // (4 * config.workers))))
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
                    **{key: getattr(config, key) for key in ("seed", *_PROTOCOL_FIELDS)},
                    "dim": pipeline.r,
                    "warnings": int(warns[:, j].sum()),
                },
            )
        )
    return reports


def run_ablation(
    config: BenchmarkConfig,
    sweep: str | None = None,
    values=None,
    store: FeatureStore | None = None,
) -> list[tuple[int, list[RunReport]]]:
    """Sweep one protocol knob, running the full benchmark per value.

    Episode randomness is derived per episode index from the base seed, so
    sweep values share classes and supports where the protocol permits
    (notably the unbalance sweep, whose query sets are nested).
    """
    sweep = sweep or config.sweep
    if sweep not in SWEEP_VALUES:
        raise ValueError(f"unknown sweep {sweep!r}; choose from {', '.join(SWEEP_VALUES)}")
    if values is None:
        values = SWEEP_VALUES[sweep]
    pipelines = config.pipelines()  # every setting is checked before the store loads
    if sweep == "noise" and config.mode != "semi":
        raise ValueError("the noise sweep varies distractor classes and requires --mode semi")
    if sweep == "dim":
        bad = [p.name for p in pipelines if p.projection == "none"]
        if bad:
            raise ValueError(f"the dim sweep needs a projection method; {', '.join(bad)} has none")

    if store is None:
        store = load_store(config)
    table = []
    for value in values:
        cfg = replace(config, **{_SWEEP_FIELDS[sweep]: int(value)})
        table.append((int(value), run_benchmark(cfg, store=store)))
    return table


def boolean(value: str) -> bool:
    """Parse a config-file or flag boolean: true/1/yes or false/0/no, any case."""
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/1/yes or false/0/no, got {value!r}")


_PARSERS = {"int": int, "float": float, "str": str, "bool": boolean}


def field_parsers(cls) -> dict:
    """One value parser per field of the dataclass ``cls``, chosen by its
    annotation (a string, under ``from __future__ import annotations``)."""
    return {f.name: _PARSERS[f.type.removesuffix(" | None")] for f in fields(cls)}


def _read_key_values(path, parsers: dict) -> dict:
    """Read a flat ``key=value`` file (``#`` starts a comment), parsing each
    value with ``parsers[key]``.  Every error names ``path:line``."""
    out: dict = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in parsers:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = parsers[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def parse_config_file(path) -> dict:
    """Parse a run-config file; its keys are the BenchmarkConfig fields."""
    return _read_key_values(path, field_parsers(BenchmarkConfig))


def _store_from_mog_config(path) -> FeatureStore:
    """Build a synthetic store from a mixture config file: the MoGSpec fields
    plus the store's ``classes``, ``per_class`` and ``seed``."""
    raw = _read_key_values(path, {**field_parsers(MoGSpec), "classes": int, "per_class": int, "seed": int})
    required = [f.name for f in fields(MoGSpec) if f.default is MISSING] + ["classes", "per_class"]
    for key in required:
        if key not in raw:
            raise ValueError(f"{path}: missing required key {key!r}")
    store_keys = {key: raw.pop(key) for key in ("classes", "per_class", "seed") if key in raw}
    try:
        return generate_mog_store(MoGSpec(**raw), **store_keys)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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


# The episode protocol: BenchmarkConfig fields passed by name to EpisodeSpec
# and copied into every report's metadata and CSV row.
_PROTOCOL_FIELDS = ("ways", "shots", "queries", "unlabeled", "distractors", "unbalanced_r")
CSV_COLUMNS = ["sweep", "value", "method", "mode", *_PROTOCOL_FIELDS, "episodes", "seed", "dim", "accuracy", "ci95"]


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
