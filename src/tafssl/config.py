"""Run settings: the method table, :class:`BenchmarkConfig` and its file
parsers, and the checks a run gets before episode 0.
:meth:`BenchmarkConfig.table` expands a run into its rows, one per sweep
value, and checks each row's settings with :meth:`BenchmarkConfig.pipelines`
before the feature source is read; once the store is loaded,
:meth:`BenchmarkConfig.check_store` checks each row against it.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields, replace

from tafssl.classify import nn, sub, sub_star
from tafssl.cluster import bkm_predict, msp_predict
from tafssl.episodes import EpisodeSpec, FeatureStore, MoGSpec, generate_mog_store
from tafssl.linalg import as_choice, as_count
from tafssl.subspace import ICA_DEFAULT_DIM, PCA_DEFAULT_DIM

__all__ = [
    "BenchmarkConfig",
    "METHODS",
    "MethodPipeline",
    "PROTOCOL_FIELDS",
    "SWEEP_VALUES",
    "field_parsers",
    "parse_config_file",
    "parse_method",
    "read_mixture_file",
]

# CLI method name -> (projection, inference head).  ``ica-*`` whitens:
# FastICA's unmixing only rotates the whitened pool (Hyvarinen & Oja 2000),
# and every head decides from distances and means, which no rotation changes.
# A head that is not rotation-invariant would need a projection kind of its
# own.  A head is named after its projection-free method, ``_`` for ``-``.
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

# The episode protocol: BenchmarkConfig fields passed by name to EpisodeSpec
# and copied into every report's metadata and CSV row.
PROTOCOL_FIELDS = ("ways", "shots", "queries", "unlabeled", "distractors", "unbalanced_r")


@dataclass(frozen=True)
class MethodPipeline:
    """One classification pipeline: a projection and an inference head.

    ``head`` is the method's function in :data:`METHODS`, called as
    ``head(S, support_labels, Q, pool, seed)``."""

    name: str
    projection: str  # none | pca | whiten
    r: int | None
    head: Callable


def parse_method(name: str, dim: int | None = None) -> MethodPipeline:
    """Build a pipeline from a CLI method name like ``pca-bkm``; ``dim``, an
    integer >= 1 (a non-integer raises), overrides the default subspace size
    of its projection."""
    as_choice(name, "method", METHODS)
    if dim is not None:
        dim = as_count(dim, "dim", 1)
    projection, head = METHODS[name]
    r = None if projection == "none" else dim or _DEFAULT_DIMS[projection]
    return MethodPipeline(name, projection, r, head)


def _setting(default, help_text: str):
    """A BenchmarkConfig field: its default, and the help text of its flag."""
    return field(default=default, metadata={"help": help_text})


@dataclass
class BenchmarkConfig:
    """Flat run configuration.  Each field is one config-file key and one CLI
    flag of the same name (``-`` for ``_``), both parsed by :func:`field_parsers`."""

    method: str = _setting("nn", f"comma-separated list from: {', '.join(METHODS)}")
    mode: str = _setting(EpisodeSpec.mode, "unlabeled pool source: transductive or semi")
    ways: int = _setting(EpisodeSpec.ways, "classes per episode")
    shots: int = _setting(EpisodeSpec.shots, "support samples per class")
    queries: int = _setting(EpisodeSpec.queries, "query samples per class")
    unlabeled: int = _setting(EpisodeSpec.unlabeled, "semi mode: unlabeled samples per class")
    distractors: int = _setting(EpisodeSpec.distractors, "semi mode: extra unlabeled-only classes")
    unbalanced_r: int = _setting(EpisodeSpec.unbalanced_r, "per-class extra queries ~ uniform[0,R]")
    episodes: int = _setting(10000, "episode count")
    seed: int = _setting(0, "master seed")
    dim: int | None = _setting(None, f"subspace dimension; when unset, pca {PCA_DEFAULT_DIM} and ica {ICA_DEFAULT_DIM}")
    features: str | None = _setting(None, "feature store file, .csv or binary")
    synthetic: str | None = _setting(None, "mixture-of-Gaussians config file path, or 'reference'")
    sweep: str | None = _setting(None, f"run an ablation sweep instead of a single benchmark: {', '.join(SWEEP_VALUES)}")
    out: str | None = _setting(None, "results CSV path")
    workers: int = _setting(1, "parallel episode workers")

    def methods(self) -> list[str]:
        return [m.strip() for m in self.method.split(",") if m.strip()] if isinstance(self.method, str) else [self.method]

    def pipelines(self) -> list[MethodPipeline]:
        """The configured pipelines.  This is the one check a config gets
        before the feature source is read: it raises ValueError for any
        setting the run would reject on any store, among them a count that
        is not an integer and an ``out`` that is a folder or in a missing one."""
        if self.out:  # a bad path fails now, not after the whole run
            folder = os.path.dirname(self.out) or "."
            if os.path.isdir(self.out):
                raise ValueError(f"out: {self.out} is a directory")
            if not os.path.isdir(folder):
                raise ValueError(f"out: no such directory: {folder}")
        for name, low in (("episodes", 1), ("workers", 1), ("seed", 0)):
            as_count(getattr(self, name), name, low)
        if self.sweep is not None:
            as_choice(self.sweep, "sweep", SWEEP_VALUES)
        self.episode_spec(0)  # EpisodeSpec holds the protocol and mode rules
        names = self.methods()
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"method {name!r} is given more than once")
        pipes = [parse_method(m, self.dim) for m in names]
        for p in pipes:
            if p.head in (sub, sub_star) and self.mode != "transductive":
                raise ValueError(f"method {p.name!r} is defined on the support+query pool and requires transductive mode")
        if not pipes:
            raise ValueError("no method given")
        if self.sweep == "noise" and self.mode != "semi":
            raise ValueError("the noise sweep varies distractor classes and requires --mode semi")
        bad = [p.name for p in pipes if p.projection == "none"]
        if self.sweep == "dim" and bad:
            raise ValueError(f"the dim sweep needs a projection method; {', '.join(bad)} has none")
        if self.dim is not None and len(bad) == len(pipes):
            raise ValueError(f"dim = {self.dim} is set, but no method projects: {', '.join(bad)}")
        return pipes

    def table(self) -> list[tuple[int | None, BenchmarkConfig, list[MethodPipeline]]]:
        """The run's rows ``(value, config, pipelines)``: one per value in
        ``SWEEP_VALUES[self.sweep]``, with the field that sweep varies set to
        the value, or the one row ``(None, self, pipelines)`` with no sweep.
        This config is checked first, so an unknown sweep fails before any
        value is read, and then every row's config."""
        pipes = self.pipelines()
        if self.sweep is None:
            return [(None, self, pipes)]
        rows = [(v, replace(self, **{_SWEEP_FIELDS[self.sweep]: v})) for v in SWEEP_VALUES[self.sweep]]
        return [(v, cfg, cfg.pipelines()) for v, cfg in rows]

    def check_store(self, store: FeatureStore) -> None:
        """Check this config against a loaded store, before episode 0: the
        capacity rule, :meth:`EpisodeSpec.check_store`, then each pipeline's
        dim against the store's feature count."""
        self.episode_spec(0).check_store(store)
        for p in self.pipelines():
            if p.r is not None and p.r > store.m:
                raise ValueError(f"{p.name} projects to dim = {p.r}, but the store's features have {store.m} dimensions")

    def episode_spec(self, index: int) -> EpisodeSpec:
        return EpisodeSpec(**{key: getattr(self, key) for key in PROTOCOL_FIELDS}, mode=self.mode, seed=(self.seed, index))


_PARSERS = {"int": int, "float": float, "str": str}


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
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                out[key] = parsers[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def parse_config_file(path) -> dict:
    """Parse a run-config file; its keys are the BenchmarkConfig fields."""
    return _read_key_values(path, field_parsers(BenchmarkConfig))


def read_mixture_file(path) -> FeatureStore:
    """Build a synthetic store from a mixture config file: the MoGSpec fields
    plus the store's ``classes``, ``per_class`` and ``seed``.  A bad line
    fails naming ``path:line``; a missing key, or a value out of range,
    fails naming the file and the key."""
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
