"""The CPU plan: how many parts a run's stack trains in, and whether a
sampler draws its inputs ahead."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from slimfl import engine

SRC = Path(__file__).resolve().parents[1] / "src"
LINUX = sys.platform.startswith("linux")


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
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    code = "from slimfl import engine; print(engine.plan(10))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "(1, True)"
