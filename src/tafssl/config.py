"""Run settings: the method table, :class:`BenchmarkConfig` and its file
parsers, and every check a run gets before its first episode:
:meth:`BenchmarkConfig.pipelines` before the feature source is read, and
:meth:`BenchmarkConfig.check_store` once the store is loaded.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields
from functools import partial

from tafssl.classify import nn, sub, sub_star
from tafssl.cluster import bkm_predict, msp_predict
from tafssl.episodes import EpisodeSpec, FeatureStore, MoGSpec, generate_mog_store
from tafssl.subspace import ICA_DEFAULT_DIM, PCA_DEFAULT_DIM

__all__ = [
    "BenchmarkConfig",
    "METHODS",
    "MethodPipeline",
    "PROTOCOL_FIELDS",
    "SWEEP_FIELDS",
    "SWEEP_VALUES",
    "boolean",
    "field_parsers",
    "parse_config_file",
    "parse_method",
    "read_mixture_file",
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
SWEEP_FIELDS = {"queries": "queries", "noise": "distractors", "dim": "dim", "unbalance": "unbalanced_r"}

# The episode protocol: BenchmarkConfig fields passed by name to EpisodeSpec
# and copied into every report's metadata and CSV row.
PROTOCOL_FIELDS = ("ways", "shots", "queries", "unlabeled", "distractors", "unbalanced_r")


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
        before the feature source is read: it raises ValueError for any
        setting the run would reject on any store."""
        for name, bound in (("episodes", 1), ("workers", 1), ("seed", 0)):
            if getattr(self, name) < bound:
                raise ValueError(f"{name} must be >= {bound}")
        if self.sweep is not None and self.sweep not in SWEEP_VALUES:
            raise ValueError(f"unknown sweep {self.sweep!r}; choose from {', '.join(SWEEP_VALUES)}")
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
        if self.sweep == "noise" and self.mode != "semi":
            raise ValueError("the noise sweep varies distractor classes and requires --mode semi")
        bad = [p.name for p in pipes if p.projection == "none"]
        if self.sweep == "dim" and bad:
            raise ValueError(f"the dim sweep needs a projection method; {', '.join(bad)} has none")
        return pipes

    def check_store(self, store: FeatureStore) -> None:
        """Raise ValueError unless ``store`` can supply every episode of the
        run: enough classes for the task and distractor classes, and enough
        rows in its smallest class, since any class may be a task class."""
        needed, classes = self.ways + self.distractors, len(store.classes)
        if needed > classes:
            raise ValueError(f"ways + distractors = {needed}, but the store has {classes} classes")
        needed, rows = self.shots + self.queries + self.unbalanced_r + self.unlabeled, min(len(X) for X in store.classes.values())
        if needed > rows:
            raise ValueError(f"shots + queries + unbalanced_r + unlabeled = {needed}, but the store's smallest class has {rows} samples")

    def episode_spec(self, index: int) -> EpisodeSpec:
        return EpisodeSpec(**{key: getattr(self, key) for key in PROTOCOL_FIELDS}, mode=self.mode, seed=(self.seed, index))


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


def read_mixture_file(path) -> FeatureStore:
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
