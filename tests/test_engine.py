"""The CPU plan: how many parts a run's stack trains in, and whether a
spare CPU hosts a sampler that draws its inputs ahead and an evaluator that
evaluates its global model behind."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import sampled_rounds

from slimfl import engine, experiment
from slimfl.config import load_config
from slimfl.metrics import metrics_rows

SRC = Path(__file__).resolve().parents[1] / "src"
REFERENCE = SRC.parent / "configs" / "reference.ini"
LINUX = sys.platform.startswith("linux")
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def threads() -> int:
    return len(os.listdir("/proc/self/task"))


def test_off_linux_one_part_and_no_sampler(monkeypatch):
    monkeypatch.setattr(engine, "available_cpus", lambda: 64)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert [engine.plan(n) for n in (10, 100)] == [(1, False)] * 2


@pytest.mark.skipif(not LINUX, reason="the plan splits on Linux only")
@pytest.mark.parametrize(
    "cpus, n_devices, parts",
    [(2, 100, 2), (4, 100, 4), (8, 100, 8), (64, 100, 8), (4, 36, 3), (4, 24, 2), (4, 23, 1),
     (64, 11, 1), (1, 100, 1)],
)
def test_parts_are_devices_over_12_capped_by_the_cpus(monkeypatch, cpus, n_devices, parts):
    assert engine.MIN_DEVICES_PER_PART == 12
    monkeypatch.setattr(engine, "available_cpus", lambda: cpus)
    assert engine.plan(n_devices)[0] == parts


@pytest.mark.skipif(not LINUX, reason="the sampler runs on Linux only")
def test_sampler_needs_one_part_and_a_cpu_beyond_threads_and_helpers(monkeypatch):
    monkeypatch.setattr(engine, "available_cpus", lambda: threads() + 1)
    assert engine.plan(10) == (1, True)
    assert engine.plan(24) == (2, False)  # a split stack already uses the CPUs
    with monkeypatch.context() as mp:
        mp.setattr(engine, "_PROCESS_ENDS", {object()})  # a live helper takes the CPU
        assert engine.plan(10) == (1, False)
    monkeypatch.setattr(engine, "available_cpus", threads)
    assert engine.plan(10) == (1, False)


@pytest.mark.skipif(not LINUX, reason="the sampler runs on Linux only")
def test_fresh_process_with_one_blas_thread_samples():
    """The unpatched rule that the benchmark's one-part workloads meet.
    Under pytest it never samples: the ``faulthandler_timeout`` watchdog is
    a second thread."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: no CPU to spare for a sampler")
    assert fresh_process("from slimfl import engine; print(engine.plan(10))") == (1, True)


def fresh_process(code: str):
    """The value that ``code`` prints, run in a fresh Python with one BLAS
    thread."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **ONE_BLAS_THREAD}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    return ast.literal_eval(out.stdout.strip())


# the reference run, three rounds of it
TINY_RUN = f"""
import dataclasses
from slimfl import experiment
from slimfl.config import load_config
from slimfl.metrics import metrics_rows
cfg = dataclasses.replace(load_config({str(REFERENCE)!r}), rounds=3)
run = experiment.make_run(cfg, 4)
rows = metrics_rows(run.run())
print((run.local.sampler is not None, run.evaluator is not None, rows))
"""


@pytest.mark.skipif(not LINUX, reason="the sampler and evaluator run on Linux only")
def test_fresh_process_run_samples_and_evaluates_on_the_spare_cpu():
    """A run driven through ``run()`` under the unpatched rule starts both
    spare-CPU helpers, and writes the inline run's rows."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: no CPU to spare for a sampler or an evaluator")
    sampler, evaluator, rows = fresh_process(TINY_RUN)
    with sampled_rounds(False):
        inline = experiment.make_run(
            dataclasses.replace(load_config(REFERENCE), rounds=3), 4
        ).run()
    assert (sampler, evaluator) == (True, True)
    assert rows == metrics_rows(inline)
