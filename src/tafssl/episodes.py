"""Episode sampling and the synthetic mixture-of-Gaussians feature generator.

A :class:`FeatureStore` is the labeled universe episodes are drawn from:
per-class matrices of m-dimensional feature vectors, either loaded from a
file or produced by :func:`generate_mog_store`.  :func:`sample_episode`
draws one n-way k-shot task with a query set, optional unlabeled set, and
optional distractor-class pollution of the unlabeled set, fully determined
by the seed in its :class:`EpisodeSpec`.

The synthetic generator models each feature dimension as a two-component
Gaussian mixture: "signal" dimensions fire from a class-specific mean with
probability ``rho_signal`` and otherwise emit noise; the remaining
dimensions are pure class-independent noise.  Signal dimensions come first
in the layout.  Per-class signal means are drawn once per (class, dim) from
a zero-centered normal with spread ``sigma_between``, the minimal structure
that makes signal dimensions class-discriminative.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from tafssl.linalg import as_choice, as_count, as_labels, as_matrix, as_real

__all__ = [
    "Episode",
    "EpisodeSpec",
    "FeatureStore",
    "MoGSpec",
    "REFERENCE_CLASSES",
    "REFERENCE_PER_CLASS",
    "REFERENCE_STORE_SEED",
    "generate_mog_store",
    "mutual_information_diagnostic",
    "reference_mog_spec",
    "reference_store",
    "sample_episode",
]

DISTRACTOR_LABEL = -1


@dataclass(frozen=True)
class FeatureStore:
    """Labeled pool of feature vectors grouped by class id.

    A store has one dtype: float32 when every class is given as float32
    (as the feature loaders give them), float64 otherwise.  Episodes are
    float64 either way; :func:`sample_episode` widens the rows it gathers.
    The stores the library builds (:func:`generate_mog_store`, the binary
    loader) keep every class in one C-contiguous (total rows, m) buffer, in
    class insertion order; each class array is a row view of it.  The CSV
    loader gives each class an array of its own, and a store built by hand
    keeps the arrays it is given when they already have the store's
    dtype."""

    classes: dict[int, np.ndarray]

    def __post_init__(self):
        if not self.classes:
            raise ValueError("feature store has no classes")
        float32 = all(getattr(X, "dtype", None) == np.float32 for X in self.classes.values())
        dtype = np.float32 if float32 else np.float64
        validated: dict[int, np.ndarray] = {}
        dims = set()
        for cid, X in self.classes.items():
            try:
                key = operator.index(cid)
            except TypeError:
                raise ValueError(f"class id {cid!r} is not an integer") from None
            X = as_matrix(X, f"class {cid}", dtype)
            if X.shape[0] < 1:
                raise ValueError(f"class {cid} has no samples")
            validated[key] = X
            dims.add(X.shape[1])
        if len(dims) != 1:
            raise ValueError(f"classes disagree on feature dimension: {sorted(dims)}")
        as_count(dims.pop(), "feature dimension m", 1)
        object.__setattr__(self, "classes", validated)

    @property
    def m(self) -> int:
        return next(iter(self.classes.values())).shape[1]

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """All features stacked with their class labels, ordered by class id."""
        ids = sorted(self.classes)
        X = np.vstack([self.classes[c] for c in ids])
        y = np.concatenate([np.full(self.classes[c].shape[0], c) for c in ids])
        return X, y


@dataclass(frozen=True)
class EpisodeSpec:
    """Shape of one few-shot task.  The fields are the harness's setting
    names (the ``BenchmarkConfig`` fields, flags and config keys).

    ``unbalanced_r`` adds a per-class uniform[0, R] extra query count.  In
    transductive mode the queries double as the unlabeled pool, so
    ``unlabeled`` and ``distractors`` must be zero there.  Every count, and
    ``seed`` or each part of a ``seed`` tuple, is an integer at or above its
    bound (``seed`` >= 0), kept as a Python int; a non-integer raises
    ValueError.
    """

    ways: int = 5
    shots: int = 1
    queries: int = 15
    unlabeled: int = 0
    distractors: int = 0
    unbalanced_r: int = 0
    mode: str = "transductive"
    seed: int | tuple = 0

    def __post_init__(self):
        for name, low in (("ways", 2), ("shots", 1), ("queries", 1), ("unlabeled", 0), ("distractors", 0), ("unbalanced_r", 0)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, low))
        seed = tuple(as_count(part, "seed") for part in self.seed) if isinstance(self.seed, tuple) else as_count(self.seed, "seed")
        object.__setattr__(self, "seed", seed)
        as_choice(self.mode, "mode", ("transductive", "semi"))
        if self.mode == "transductive" and (self.unlabeled or self.distractors):
            raise ValueError("transductive mode uses queries as the unlabeled pool; unlabeled and distractors must be 0")
        if self.mode == "semi" and self.unlabeled < 1:
            raise ValueError("semi mode needs unlabeled >= 1")

    def check_store(self, store: FeatureStore) -> None:
        """Raise ValueError unless ``store`` can supply every episode of this
        shape: enough classes for the task and distractor classes, and enough
        rows in its smallest class for the largest ``unbalanced_r`` draw,
        since any class may be a task class."""
        needed, classes = self.ways + self.distractors, len(store.classes)
        if needed > classes:
            raise ValueError(f"ways + distractors = {needed}, but the store has {classes} classes")
        needed, rows = self.shots + self.queries + self.unbalanced_r + self.unlabeled, min(len(X) for X in store.classes.values())
        if needed > rows:
            raise ValueError(f"shots + queries + unbalanced_r + unlabeled = {needed}, but the store's smallest class has {rows} samples")


@dataclass(frozen=True)
class Episode:
    """One sampled task.  ``query_labels`` exist for scoring only and must
    never reach a classifier; ``unlabeled_labels`` track provenance of the
    unlabeled rows (distractors carry -1) for diagnostics."""

    support: np.ndarray
    support_labels: np.ndarray
    query: np.ndarray
    query_labels: np.ndarray
    unlabeled: np.ndarray
    unlabeled_labels: np.ndarray
    class_ids: list[int]

    @cached_property
    def pool(self) -> np.ndarray:
        """Support rows, class by class, then the queries (transductive) or
        the unlabeled rows, task classes then distractors (semi).  A sampled
        episode's sets are row views of this buffer; any other episode
        (``dataclasses.replace`` too) stacks its own on first read."""
        rest = self.query if self.unlabeled.shape[0] == 0 else self.unlabeled
        return np.vstack([self.support, rest])


@dataclass(frozen=True)
class MoGSpec:
    """Per-dimension two-Gaussian mixture parameters for synthetic features.

    Dimensions 0..signal_dims-1 are signal: with probability ``rho_signal``
    a sample draws from N(class_mean, sigma_signal^2) where class_mean was
    drawn once per (class, dim) from N(0, sigma_between^2); otherwise, and
    on every pure-noise dimension, it draws from N(mu_noise, sigma_noise^2).
    ``m`` >= 1 and ``signal_dims`` in [0, m] are integers, ``rho_signal`` a finite real number in
    [0, 1], each sigma one > 0 and ``mu_noise`` any; anything else raises a ValueError naming it.
    Each field keeps its checked value, a Python int or float.
    """

    m: int
    signal_dims: int
    rho_signal: float = 0.8
    mu_noise: float = 0.0
    sigma_noise: float = 1.0
    sigma_between: float = 3.0
    sigma_signal: float = 1.0

    def __post_init__(self):
        m = as_count(self.m, "feature dimension m", 1)
        if isinstance(self.signal_dims, (int, np.integer)) and not m >= self.signal_dims >= 0:
            raise ValueError("signal_dims must lie in [0, m]")
        checked = {
            "m": m,
            "signal_dims": as_count(self.signal_dims, "signal_dims"),
            "rho_signal": as_real(self.rho_signal, "rho_signal", "[0, 1]"),
            "mu_noise": as_real(self.mu_noise, "mu_noise"),
            **{name: as_real(getattr(self, name), name, "(0, inf)") for name in ("sigma_noise", "sigma_between", "sigma_signal")},
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)


# Desk-scale reference benchmark: a store calibrated so the subspace methods
# separate cleanly from the raw-feature baselines at 1-shot 5-way.
REFERENCE_CLASSES = 20
REFERENCE_PER_CLASS = 100
REFERENCE_STORE_SEED = 7


def reference_mog_spec() -> MoGSpec:
    return MoGSpec(m=64, signal_dims=8, rho_signal=0.8, mu_noise=0.0, sigma_noise=1.0, sigma_between=3.0, sigma_signal=1.0)


def reference_store() -> FeatureStore:
    return generate_mog_store(reference_mog_spec(), REFERENCE_CLASSES, REFERENCE_PER_CLASS, REFERENCE_STORE_SEED)


def generate_mog_store(
    spec: MoGSpec,
    classes: int,
    per_class: int,
    seed: int = 0,
    return_class_means: bool = False,
):
    """Draw a synthetic FeatureStore from the mixture model, deterministically.

    With ``return_class_means`` the realized (class x signal_dim) mean matrix
    is returned alongside the store, which lets variance checks compare the
    empirical moments against the exact generating parameters.
    ``classes`` and ``per_class`` are integers >= 1 and ``seed`` one >= 0; a
    non-integer raises ValueError.
    """
    classes, per_class, seed = as_count(classes, "classes", 1), as_count(per_class, "per_class", 1), as_count(seed, "seed")
    rng = np.random.default_rng(seed)
    s = spec.signal_dims
    class_means = rng.normal(0.0, spec.sigma_between, size=(classes, s))
    buffer = np.empty((classes * per_class, spec.m))
    by_class: dict[int, np.ndarray] = {}
    for c in range(classes):
        X = buffer[c * per_class : (c + 1) * per_class]
        if s:
            fired = rng.random((per_class, s)) < spec.rho_signal
            on_signal = rng.normal(class_means[c], spec.sigma_signal, size=(per_class, s))
            off_signal = rng.normal(spec.mu_noise, spec.sigma_noise, size=(per_class, s))
            X[:, :s] = np.where(fired, on_signal, off_signal)
        if s < spec.m:
            X[:, s:] = rng.normal(spec.mu_noise, spec.sigma_noise, size=(per_class, spec.m - s))
        by_class[c] = X
    store = FeatureStore(classes=by_class)
    return (store, class_means) if return_class_means else store


def sample_episode(store: FeatureStore, spec: EpisodeSpec) -> Episode:
    """Draw one episode from the store, bit-reproducible per spec.seed.

    The seed feeds two independent streams: one for class choice and
    per-class sample permutations, one for the unbalanced extra-query
    draws.  Runs differing only in ``unbalanced_r`` therefore share classes
    and support samples, and their per-class query sets are nested.  Rows
    are gathered, in the store's dtype, into one buffer that becomes the
    float64 :attr:`Episode.pool`; semi-mode queries get a buffer of their
    own.  A store that cannot supply the spec fails
    :meth:`EpisodeSpec.check_store` before any draw.
    """
    spec.check_store(store)
    structure, unbalance = [np.random.default_rng(s) for s in np.random.SeedSequence(spec.seed).spawn(2)]
    all_ids = sorted(store.classes)
    chosen = structure.choice(len(all_ids), size=spec.ways + spec.distractors, replace=False)
    task_ids = [all_ids[i] for i in chosen[: spec.ways]]
    distractor_ids = [all_ids[i] for i in chosen[spec.ways :]]

    u = spec.unlabeled  # 0 in transductive mode
    sup, squery, unlab = [], [], []  # (class rows, row indices) per class, task classes first
    for i, cid in enumerate(task_ids + distractor_ids):
        X = store.classes[cid]
        perm = structure.permutation(X.shape[0])
        k, n_q = (spec.shots, spec.queries) if i < spec.ways else (0, 0)  # distractors: unlabeled only
        if i < spec.ways and spec.unbalanced_r:
            n_q += int(unbalance.integers(0, spec.unbalanced_r + 1))
        sup.append((X, perm[:k]))
        squery.append((X, perm[k : k + n_q]))
        unlab.append((X, perm[k + n_q : k + n_q + u]))

    semi = spec.mode == "semi"
    n_s = spec.ways * spec.shots
    pool = _gather(sup + (unlab if semi else squery), store.m)
    class_labels = np.concatenate([np.arange(spec.ways), np.full(len(distractor_ids), DISTRACTOR_LABEL)])
    episode = Episode(
        support=pool[:n_s],
        support_labels=np.repeat(class_labels, [idx.size for _, idx in sup]),
        query=_gather(squery, store.m) if semi else pool[n_s:],
        query_labels=np.repeat(class_labels, [idx.size for _, idx in squery]),
        unlabeled=pool[n_s:] if semi else np.empty((0, store.m)),
        unlabeled_labels=np.repeat(class_labels, [idx.size for _, idx in unlab]),
        class_ids=task_ids,
    )
    object.__setattr__(episode, "pool", pool)  # seeds the cached property
    return episode


def _gather(parts, m: int) -> np.ndarray:
    """Copy each (class rows, row indices) part into consecutive rows of one
    new buffer in the store's dtype, then widen that buffer to float64 once
    (no copy for a float64 store).  Widening float32 is exact, so the rows
    equal those of the store's float64 twin bit for bit."""
    out = np.empty((sum(idx.size for _, idx in parts), m), dtype=parts[0][0].dtype)
    for (X, idx), end in zip(parts, np.cumsum([idx.size for _, idx in parts])):
        # "clip" never clips a permutation's indices; it lets numpy write into ``out`` directly.
        np.take(X, idx, axis=0, out=out[end - idx.size : end], mode="clip")
    return np.asarray(out, dtype=np.float64)


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0].astype(float)
    p /= p.sum()
    return float(-(p * np.log(p)).sum())


def mutual_information_diagnostic(features, labels=None, bins: int = 32) -> np.ndarray:
    """Per-dimension normalized mutual information between label and feature.

    Each dimension is discretized into equal-width bins over its observed
    range; MI(label; bin) is normalized by min(H(label), H(bin)), giving
    values in [0, 1].  A constant dimension scores 0.  Accepts either a
    FeatureStore or an explicit (features, labels) pair.  ``bins`` is an
    integer >= 2; a non-integer raises ValueError.
    """
    if isinstance(features, FeatureStore):
        if labels is not None:
            raise ValueError("labels come from the store; pass labels only with a feature matrix")
        features, labels = features.stacked()
    elif labels is None:
        raise ValueError("labels are required unless features is a FeatureStore")
    X = as_matrix(features, "features")
    ids, y_idx = as_labels(labels, X.shape[0], "feature")
    bins = as_count(bins, "bins", 2)

    n_labels = len(ids)
    h_label = _entropy(np.bincount(y_idx))
    n = X.shape[0]

    out = np.zeros(X.shape[1])
    if h_label == 0.0:
        return out
    for d in range(X.shape[1]):
        x = X[:, d]
        lo, hi = x.min(), x.max()
        if hi == lo:
            continue
        b = np.minimum(((x - lo) / (hi - lo) * bins).astype(int), bins - 1)
        joint = np.bincount(y_idx * bins + b, minlength=n_labels * bins).reshape(n_labels, bins) / n
        p_l = joint.sum(axis=1)
        p_b = joint.sum(axis=0)
        nz = joint > 0
        mi = float((joint[nz] * np.log(joint[nz] / np.outer(p_l, p_b)[nz])).sum())
        h_bin = _entropy(p_b)
        if h_bin > 0.0:
            out[d] = min(1.0, max(0.0, mi / min(h_label, h_bin)))
    return out
