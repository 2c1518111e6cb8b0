"""Feature-store builders that more than one test module uses, defined once
here so that no test module imports another."""

import numpy as np

from tafssl.episodes import FeatureStore, MoGSpec, generate_mog_store


def separable_store(n_classes=8, per_class=40, m=6, spread=60.0):
    """Classes so far apart that every classifier should be perfect."""
    rng = np.random.default_rng(0)
    classes = {}
    for c in range(n_classes):
        center = np.zeros(m)
        center[c % m] = spread * (1 + c)
        classes[c] = rng.normal(center, 0.5, size=(per_class, m))
    return FeatureStore(classes=classes)


def noisy_store():
    return generate_mog_store(MoGSpec(m=12, signal_dims=4), 10, 60, seed=4)
