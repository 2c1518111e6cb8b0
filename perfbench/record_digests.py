"""Record the expected CSV digest of every (workload group, input set, round).

    python3 perfbench/record_digests.py    # rewrites perfbench/digests.json (~2 min)

Only a change to the benchmark's inputs (workloads, run length, input sets)
is a reason to rewrite the table.  A library change that moves a digest is a
changed output, to be explained, never absorbed by re-recording.
"""

from __future__ import annotations

import json
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

import run
from workloads import DIGESTS_PATH, INPUT_SETS, ROUNDS_PER_SET, WORKLOADS, prepare, round_config


def record() -> dict:
    from tafssl import harness

    table = {}
    # The first workload of each group records it; for "reference" that is
    # the serial run, so "reference-w2" is checked against serial bytes.
    for workload in WORKLOADS.values():
        if workload.digest_group in table:
            continue
        digests = {}
        with tempfile.TemporaryDirectory(dir=run.ROOT / "perfbench" / "_work") as tmp:
            workdir = Path(tmp)
            for index in range(INPUT_SETS):
                base = prepare(workload, index, workdir)
                store = harness.load_store(base)
                row = []
                for r in range(ROUNDS_PER_SET):
                    harness.write_csv(workdir / "round.csv", [(None, harness.run_benchmark(round_config(base, index, r), store=store))])
                    row.append(sha256((workdir / "round.csv").read_bytes()).hexdigest())
                digests[str(index)] = row
                print(f"{workload.digest_group} input set {index} recorded", file=sys.stderr)
        table[workload.digest_group] = {"episodes": workload.episodes, "rounds_per_set": ROUNDS_PER_SET, "digests": digests}
    return table


def main() -> int:
    run.import_library()
    (run.ROOT / "perfbench" / "_work").mkdir(exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
