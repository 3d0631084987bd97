"""The benchmark's workloads: which federations run, on which inputs.

A workload is a list of jobs; a job is one ``run_all`` call, i.e. what a
user waits for after ``slimfl run <config>``.  Every input is derived from
the benchmark's ``--seed``: seed ``n`` selects pinned input set
``n % POOL``, whose master seeds are listed below.  The pins in
``pins.json`` hold the SHA-256 of every metrics CSV those master seeds
produce, so every run can be checked byte for byte.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("reference", "trend-poor", "fanout")
POOL = 20

# Every workload process runs its BLAS and OpenMP pools on one thread (at
# or below nproc on any machine); the pins were made under this setting.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The criterion-7(b) configuration (tests/test_acceptance.py), with the
# poor channel from config_for_decode_probs(0.7, 0.5) applied after parsing.
TREND_POOR_INI = """
[experiment]
seeds = 1
rounds = 300
output_dir = runs/trend-poor

[dataset]
kind = synth
classes = 10
per_class = 1000
test_per_class = 100
dim = 64
spread = 0.4
alpha = 0.1

[model]
hidden = 16

[training]
lr = 0.1
st_weights = 0.5,0.5

[federation]
devices = 10
local_iters = 5
scheme = slimfl
"""


@dataclass(frozen=True)
class Job:
    """One ``run_all`` call: an INI text, plus the poor channel if set."""

    scheme: str
    seeds: tuple[int, ...]
    text: str
    poor_channel: bool = False


def master_seeds(workload: str, seed: int) -> tuple[int, ...]:
    """Master seeds of the input set that the benchmark seed selects."""
    i = seed % POOL
    if workload == "reference":
        # input set 0 is the shipped reference.ini (seeds 1, 2, 3)
        return (3 * i + 1, 3 * i + 2, 3 * i + 3)
    if workload in ("trend-poor", "fanout"):
        return (i + 1,)
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")


def _edit_ini(text: str, changes: dict[tuple[str, str], str]) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    for (section, key), value in changes.items():
        parser[section][key] = value
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def jobs(workload: str, seed: int, root: Path, out_dir: Path) -> list[Job]:
    """The run_all calls of one pass over the workload, in order.

    ``parallel_devices`` is pinned to false: the thread pool starts one
    thread per device (100 on fanout) and is slower than the serial loop.
    """
    seeds = master_seeds(workload, seed)
    seeds_text = ",".join(str(s) for s in seeds)
    if workload == "trend-poor":
        return [
            Job(
                scheme=scheme,
                seeds=seeds,
                text=_edit_ini(
                    TREND_POOR_INI,
                    {
                        ("experiment", "seeds"): seeds_text,
                        ("experiment", "output_dir"): str(out_dir / scheme),
                        ("federation", "scheme"): scheme,
                        ("federation", "parallel_devices"): "false",
                    },
                ),
                poor_channel=True,
            )
            for scheme in ("slimfl", "vanilla-1.0x")
        ]
    reference = (root / "configs" / "reference.ini").read_text()
    changes = {
        ("experiment", "seeds"): seeds_text,
        ("experiment", "output_dir"): str(out_dir / "slimfl"),
        ("federation", "parallel_devices"): "false",
    }
    if workload == "fanout":
        changes.update(
            {
                ("federation", "devices"): "100",
                ("training", "batch_size"): "8",
                ("experiment", "eval_every"): "10",
            }
        )
    return [Job(scheme="slimfl", seeds=seeds, text=_edit_ini(reference, changes))]


def build_config(job: Job):
    """Parse a job's INI text; this is the set-up's config step."""
    from slimfl.channel import config_for_decode_probs
    from slimfl.config import parse_config

    cfg = parse_config(job.text)
    if job.poor_channel:
        cfg = dataclasses.replace(cfg, channel=config_for_decode_probs(0.7, 0.5))
    return cfg


def pin_key(workload: str, scheme: str, master_seed: int) -> str:
    return f"{workload}/{scheme}/seed{master_seed}"


def csv_sha256(output_dir, master_seed: int) -> str:
    """SHA-256 of the metrics CSV that ``run_all`` wrote for one master seed."""
    data = (Path(output_dir) / f"metrics_seed{master_seed}.csv").read_bytes()
    return hashlib.sha256(data).hexdigest()
