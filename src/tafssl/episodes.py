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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from tafssl.linalg import as_matrix

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

    The stores the library builds (:func:`generate_mog_store`, the binary
    loader) keep every class in one float64 buffer; each class array is a
    row view of it."""

    classes: dict[int, np.ndarray]

    def __post_init__(self):
        if not self.classes:
            raise ValueError("feature store has no classes")
        validated: dict[int, np.ndarray] = {}
        dims = set()
        for cid, X in self.classes.items():
            X = as_matrix(X, f"class {cid}")
            if X.shape[0] < 1:
                raise ValueError(f"class {cid} has no samples")
            validated[int(cid)] = X
            dims.add(X.shape[1])
        if len(dims) != 1:
            raise ValueError(f"classes disagree on feature dimension: {sorted(dims)}")
        m = dims.pop()
        if m < 1:
            raise ValueError(f"feature dimension m must be >= 1, got {m}")
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
    ``unlabeled`` and ``distractors`` must be zero there.
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
        for name, bound in (("ways", 2), ("shots", 1), ("queries", 1), ("distractors", 0), ("unbalanced_r", 0)):
            if getattr(self, name) < bound:
                raise ValueError(f"{name} must be >= {bound}")
        if self.mode not in ("transductive", "semi"):
            raise ValueError(f"unknown mode {self.mode!r}; choose from transductive, semi")
        if self.mode == "transductive" and (self.unlabeled or self.distractors):
            raise ValueError("transductive mode uses queries as the unlabeled pool; unlabeled and distractors must be 0")
        if self.mode == "semi" and self.unlabeled < 1:
            raise ValueError("semi mode needs unlabeled >= 1")


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
        """Support rows, then queries (transductive) or unlabeled rows (semi).
        A sampled episode's sets are row views of this buffer; any other
        episode (``dataclasses.replace`` too) stacks its own on first read."""
        rest = self.query if self.unlabeled.shape[0] == 0 else self.unlabeled
        return np.vstack([self.support, rest])


@dataclass(frozen=True)
class MoGSpec:
    """Per-dimension two-Gaussian mixture parameters for synthetic features.

    Dimensions 0..signal_dims-1 are signal: with probability ``rho_signal``
    a sample draws from N(class_mean, sigma_signal^2) where class_mean was
    drawn once per (class, dim) from N(0, sigma_between^2); otherwise, and
    on every pure-noise dimension, it draws from N(mu_noise, sigma_noise^2).
    """

    m: int
    signal_dims: int
    rho_signal: float = 0.8
    mu_noise: float = 0.0
    sigma_noise: float = 1.0
    sigma_between: float = 3.0
    sigma_signal: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"feature dimension m must be >= 1, got {self.m}")
        if not 0 <= self.signal_dims <= self.m:
            raise ValueError("signal_dims must lie in [0, m]")
        if not 0.0 <= self.rho_signal <= 1.0:
            raise ValueError("rho_signal must lie in [0, 1]")
        for name in ("sigma_noise", "sigma_between", "sigma_signal"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be > 0")


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
    """
    for name, value, bound in (("classes", classes, 1), ("per_class", per_class, 1), ("seed", seed, 0)):
        if value < bound:
            raise ValueError(f"{name} must be >= {bound}")
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
    are gathered straight into the :attr:`Episode.pool` buffer; semi-mode
    queries get a buffer of their own.
    """
    structure, unbalance = [np.random.default_rng(s) for s in np.random.SeedSequence(spec.seed).spawn(2)]
    all_ids = sorted(store.classes)
    total_needed = spec.ways + spec.distractors
    if len(all_ids) < total_needed:
        raise ValueError(f"store has {len(all_ids)} classes, episode needs {total_needed}")
    chosen = structure.choice(len(all_ids), size=total_needed, replace=False)
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
        if X.shape[0] < k + n_q + u:
            raise ValueError(f"class {cid}: episode needs {k + n_q + u} samples, class has {X.shape[0]}")
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
    """Copy each (class rows, row indices) part into consecutive rows of one new buffer."""
    out = np.empty((sum(idx.size for _, idx in parts), m))
    for (X, idx), end in zip(parts, np.cumsum([idx.size for _, idx in parts])):
        # "clip" never clips a permutation's indices; it lets numpy write into ``out`` directly.
        np.take(X, idx, axis=0, out=out[end - idx.size : end], mode="clip")
    return out


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0].astype(float)
    p /= p.sum()
    return float(-(p * np.log(p)).sum())


def mutual_information_diagnostic(features, labels=None, bins: int = 32) -> np.ndarray:
    """Per-dimension normalized mutual information between label and feature.

    Each dimension is discretized into equal-width bins over its observed
    range; MI(label; bin) is normalized by min(H(label), H(bin)), giving
    values in [0, 1].  A constant dimension scores 0.  Accepts either a
    FeatureStore or an explicit (features, labels) pair.
    """
    if isinstance(features, FeatureStore):
        features, labels = features.stacked()
    X = as_matrix(features, "features")
    y = np.asarray(labels)
    if y.shape[0] != X.shape[0]:
        raise ValueError("labels length must match feature rows")
    if bins < 2:
        raise ValueError("bins must be >= 2")

    _, y_idx = np.unique(y, return_inverse=True)
    n_labels = y_idx.max() + 1
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
