"""Recompute pins.json, the summary-CSV fingerprints every repetition is
checked against, for benchmark seeds 1..10 of every workload.

    python3 bench/pin.py

Only a change that moves the physics on purpose moves the pins, and it does
so in a benchmark change of its own.  A seed whose repetition fails an audit
or raises is not pinned; the script then exits with 1.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import workloads

PINNED_SEEDS = range(1, 11)


def main() -> int:
    pins = {}
    for name, w in workloads.WORKLOADS.items():
        pins[name] = {}
        for seed in PINNED_SEEDS:
            rep = workloads.run_rep(w, w.seeds(seed), jobs=workloads.nproc())
            if rep.failures:
                print(f"pin: {name} seed {seed} failed: {rep.failures[0]}", file=sys.stderr)
                return 1
            pin = pins[name][str(seed)] = dataclasses.asdict(rep.fingerprint())
            print(f"{name} seed {seed}: {pin['csv_sha256']}", flush=True)
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
