"""Regenerate ``pins.json``: the metrics-CSV SHA-256 of every pinned input set.

Run from the repository root, on a commit whose outputs are the accepted
reference (the pins were made on the commit that introduced the benchmark):

    python3 bench/pins.py

A program change that alters any CSV byte makes the benchmark report the
affected federations as failed, so pins change only with a deliberate,
documented change of the program's outputs.  Every pin is regenerated, so
all of them always come from one commit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINS_PATH = BENCH / "pins.json"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def load_pins() -> dict[str, str]:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    os.environ.update(workloads.THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    from slimfl.experiment import run_all

    pins = {}
    work = BENCH / "_work" / f"pins-{os.getpid()}"
    try:
        for workload in workloads.WORKLOADS:
            for index in range(workloads.POOL):
                for job in workloads.jobs(workload, index, ROOT, work):
                    cfg = workloads.build_config(job)
                    run_all(cfg)
                    for seed in job.seeds:
                        key = workloads.pin_key(workload, job.scheme, seed)
                        pins[key] = workloads.csv_sha256(cfg.output_dir, seed)
                        print(key, pins[key], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tmp = PINS_PATH.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(dict(sorted(pins.items())), fh, indent=1)
        fh.write("\n")
    os.replace(tmp, PINS_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
