"""The benchmark's workloads and the inputs each one is given.

A run's ``--seed`` selects one of ``INPUT_SETS`` input sets (``seed %
INPUT_SETS``).  An input set fixes the feature store (for workloads that
generate one) and ``ROUNDS_PER_SET`` episode seeds; the rounds of a run cycle
through those episode seeds, each round being one ``run_benchmark`` call over
``Workload.episodes`` episodes.  The expected CSV digest of every (input set,
round) is stored in ``digests.json``, so every round's output is checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

INPUT_SETS = 16
ROUNDS_PER_SET = 8
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# Store shapes.  ``wide`` is the criterion-7 shape at 20 classes; ``semi``
# uses the reference mixture spec with enough rows per class for 100
# unlabeled samples per class.
WIDE_STORE = {"m": 1024, "signal_dims": 32, "sigma_between": 2.0, "classes": 20, "per_class": 100}
SEMI_STORE_CLASSES = 20
SEMI_STORE_PER_CLASS = 600


@dataclass(frozen=True)
class Workload:
    name: str
    methods: str
    episodes: int  # per round: the run length the digests are keyed on
    source: str  # reference | mog-config | feature-file
    digest_group: str  # workloads that must produce the same CSV bytes share a group
    workers: int = 1
    mode: str = "transductive"
    unlabeled: int = 0
    distractors: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reference", "nn,pca-nn,ica-nn,ica-msp", 10, "reference", "reference"),
        Workload("reference-w2", "nn,pca-nn,ica-nn,ica-msp", 10, "reference", "reference", workers=2),
        Workload("wide", "nn,pca-nn,pca-bkm,ica-bkm", 4, "mog-config", "wide"),
        Workload("semi", "bkm,msp,pca-bkm,pca-msp", 10, "feature-file", "semi", mode="semi", unlabeled=100, distractors=3),
    )
}


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def prepare(workload: Workload, input_set_index: int, workdir: Path):
    """Write the workload's input files into ``workdir`` and return the base
    ``BenchmarkConfig`` that points at them.  Store generation and file
    writing happen here, before anything is timed."""
    from tafssl.episodes import generate_mog_store, reference_mog_spec
    from tafssl.features_io import save_features
    from tafssl.harness import BenchmarkConfig

    source = {}
    if workload.source == "reference":
        source["synthetic"] = "reference"
    elif workload.source == "mog-config":
        path = workdir / "wide_store.cfg"
        lines = [f"{k}={v}" for k, v in WIDE_STORE.items()] + [f"seed={input_set_index}"]
        path.write_text("\n".join(lines) + "\n")
        source["synthetic"] = str(path)
    elif workload.source == "feature-file":
        path = workdir / "semi_store.feats"
        store = generate_mog_store(reference_mog_spec(), SEMI_STORE_CLASSES, SEMI_STORE_PER_CLASS, input_set_index)
        save_features(store, path)
        source["features"] = str(path)
    else:
        raise ValueError(f"unknown source {workload.source!r}")
    return BenchmarkConfig(
        method=workload.methods,
        mode=workload.mode,
        unlabeled=workload.unlabeled,
        distractors=workload.distractors,
        episodes=workload.episodes,
        workers=workload.workers,
        **source,
    )


def round_config(base, input_set_index: int, round_index: int):
    """The config of one round; rounds past ROUNDS_PER_SET repeat the cycle
    of episode seeds."""
    return replace(base, seed=1000 * input_set_index + round_index % ROUNDS_PER_SET)


def expected_digests(workload: Workload, input_set_index: int) -> list[str]:
    """Stored CSV digests of the input set's rounds, in round order."""
    table = json.loads(DIGESTS_PATH.read_text())[workload.digest_group]
    if table["episodes"] != workload.episodes or table["rounds_per_set"] != ROUNDS_PER_SET:
        raise ValueError(f"digests.json was recorded for another run length of {workload.digest_group!r}")
    return table["digests"][str(input_set_index)]
