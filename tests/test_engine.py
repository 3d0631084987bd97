"""The CPU plan: how many parts a run's stack trains in, whether a spare
CPU hosts a sampler that draws its inputs ahead and the evaluator that
evaluates its round loop's global models behind, and whether split stacks'
workers spin; and the two-slot ``Ring`` that both spare-CPU helpers are."""

import ast
import dataclasses
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_no_child_process, sampled_rounds
from hypothesis import given, settings
from hypothesis import strategies as st

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


def tiny_config(scheme: str):
    """Three rounds of the reference run, of ``scheme``."""
    cfg = load_config(REFERENCE)
    federation = dataclasses.replace(cfg.federation, scheme=scheme)
    return dataclasses.replace(cfg, rounds=3, federation=federation)


def worker_spins(scheme: str) -> list[bool]:
    """Whether each worker of ``tiny_config(scheme)`` spins once its round
    loop has started."""
    fed = experiment.make_run(tiny_config(scheme), 4)
    try:
        fed.run_round()
        return [worker.spin for run in fed.runs for worker in run.local.workers]
    finally:
        fed.close()


@pytest.mark.skipif(not LINUX, reason="workers spin on Linux only")
def test_workers_spin_only_when_every_busy_thread_has_a_cpu(monkeypatch):
    """One split run on as many CPUs as its threads and its worker polls; a
    split ``vanilla-1.5x`` pair (two workers) or one more thread leaves a
    poller without a CPU, and blocks.  Forced to poll, a K=100 split pair on
    2 CPUs ran 95-112 rounds/s against 113-122 blocking (5 alternations)."""
    own = []  # the threads this test starts
    monkeypatch.setattr(engine, "plan", lambda n: (2, False))
    monkeypatch.setattr(engine, "available_cpus", lambda: threads() - len(own) + 1)
    assert worker_spins("slimfl") == [True]
    assert worker_spins("vanilla-1.5x") == [False, False]
    stop = threading.Event()
    own.append(threading.Thread(target=stop.wait))
    own[0].start()
    try:
        assert worker_spins("slimfl") == [False]
    finally:
        stop.set()
        own[0].join()
    assert_no_child_process()


@pytest.mark.skipif(not LINUX, reason="workers spin on Linux only")
def test_fresh_process_split_run_spins_and_split_pair_blocks():
    """The unpatched rule on 2 CPUs, as the benchmark's fanout meets it: a
    24-device run splits in two and its worker spins; a pair's two workers
    block."""
    if len(os.sched_getaffinity(0)) != 2:
        pytest.skip("one split run's worker takes the last CPU on 2 CPUs only")
    code = f"""
import dataclasses
from slimfl import experiment
from slimfl.config import load_config
cfg = load_config({str(REFERENCE)!r})
spins = []
for scheme in ("slimfl", "vanilla-1.5x"):
    federation = dataclasses.replace(cfg.federation, n_devices=24, scheme=scheme)
    fed = experiment.make_run(dataclasses.replace(cfg, rounds=1, federation=federation), 4)
    fed.run()
    spins.append([worker.spin for run in fed.runs for worker in run.local.workers])
print(spins)
"""
    assert fresh_process(code) == [[True], [False, False]]


# tiny_config(scheme)'s round loop driven through run(): whether each of its
# runs sampled ahead, the rounds its evaluator evaluated, and its rows
TINY_RUN = f"""
import dataclasses
from slimfl import experiment
from slimfl.config import load_config
from slimfl.metrics import metrics_rows
cfg = load_config({str(REFERENCE)!r})
federation = dataclasses.replace(cfg.federation, scheme={{scheme!r}})
fed = experiment.make_run(dataclasses.replace(cfg, rounds=3, federation=federation), 4)
rows = metrics_rows(fed.run())
print(([run.local.sampler is not None for run in fed.runs], list(fed.evaluated), rows))
"""


def inline_rows(scheme: str):
    with sampled_rounds(False):
        return metrics_rows(experiment.make_run(tiny_config(scheme), 4).run())


@pytest.mark.skipif(not LINUX, reason="the sampler and evaluator run on Linux only")
def test_fresh_process_run_samples_and_evaluates_on_the_spare_cpu():
    """A run driven through ``run()`` under the unpatched rule starts both
    spare-CPU helpers, and writes the inline run's rows."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: no CPU to spare for a sampler or an evaluator")
    sampled, evaluated, rows = fresh_process(TINY_RUN.format(scheme="slimfl"))
    assert (sampled, evaluated) == ([True], [1, 2, 3])
    assert rows == inline_rows("slimfl")


@pytest.mark.skipif(not LINUX, reason="the sampler and evaluator run on Linux only")
def test_fresh_process_pair_evaluates_both_runs_on_its_first_runs_spare_cpu():
    """A ``vanilla-1.5x`` pair under the unpatched rule: the first run's
    plan finds the spare CPU, its sampler and the evaluator take it, so the
    second run trains inline; every round of both runs is evaluated in the
    one evaluator, and the rows are the inline pair's."""
    if len(os.sched_getaffinity(0)) != 2:
        pytest.skip("the first run's helpers leave no CPU to spare on 2 CPUs only")
    sampled, evaluated, rows = fresh_process(TINY_RUN.format(scheme="vanilla-1.5x"))
    assert (sampled, evaluated) == ([True, False], [1, 2, 3])
    assert rows == inline_rows("vanilla-1.5x")


@pytest.mark.skipif(not LINUX, reason="the sampler and evaluator run on Linux only")
def test_pair_evaluates_both_runs_in_one_evaluator(monkeypatch):
    """A pair whose first run alone gets a spare CPU: the evaluator starts
    right after that run, before the second run plans, and evaluates both
    runs' global models every round; the rows are the inline pair's."""
    spare, live = iter([True]), []

    def plan(n_devices):
        live.append(len(engine._PROCESS_ENDS))  # the helpers running at each plan
        return 1, next(spare, False)

    monkeypatch.setattr(engine, "plan", plan)
    fed = experiment.make_run(tiny_config("vanilla-1.5x"), 4)
    rows = metrics_rows(fed.run())
    half, full = fed.runs
    assert (half.local.sampler is not None, full.local.sampler) == (True, None)
    assert live == [0, 2]  # the second plan counts the sampler and the evaluator
    assert list(fed.evaluated) == [1, 2, 3]
    assert all(len(accuracies) == 2 for accuracies in fed.evaluated.values())
    assert rows == inline_rows("vanilla-1.5x")


def doubler(fail_round=None) -> engine.Ring:
    """A toy ring whose job doubles its slot's input, and raises in round
    ``fail_round``."""

    def double(slot, round_):
        if round_ == fail_round:
            raise ArithmeticError(f"no double for round {round_}")
        slot.out[:] = 2 * slot.inp

    return engine.Ring(
        "doubler", "doubling the input", double, inp=((3,), np.float64), out=((3,), np.float64)
    )


def inputs(round_: int) -> np.ndarray:
    return np.array([round_, round_ + 0.5, -round_])


@pytest.mark.skipif(not LINUX, reason="a ring's helper runs on Linux only")
class TestRing:
    """A ``Ring`` answers its rounds in the order asked, from slots that
    alternate by ask order, and fails naming the round."""

    def test_rounds_answer_in_order_from_alternating_slots(self):
        ring = doubler()
        try:
            ring.ask(1, inp=inputs(1))
            ring.ask(2, inp=inputs(2))
            taken = [ring.take()]
            ring.ask(3, inp=inputs(3))  # into round 1's slot, now taken
            taken += [ring.take(), ring.take()]
        finally:
            ring.close()
        assert [round_ for round_, _ in taken] == [1, 2, 3]
        assert [slot for _, slot in taken] == [ring.slots[0], ring.slots[1], ring.slots[0]]
        # round 3's output is the last in slot 0; round 2's is still in slot 1
        np.testing.assert_array_equal(ring.slots[0].out, 2 * inputs(3))
        np.testing.assert_array_equal(ring.slots[1].out, 2 * inputs(2))
        assert not ring.pending
        assert_no_child_process()

    @settings(max_examples=25)
    @given(steps=st.lists(st.booleans(), max_size=12))
    def test_any_interleaving_of_at_most_two_pending(self, steps):
        """Each step asks (True) or takes (False) when the ring allows it,
        and does the other when not; the rest is taken at the end."""
        ring = doubler()
        asked, taken = [], []
        try:
            for ask in steps + [False] * 2:
                if (ask and len(ring.pending) < 2) or not ring.pending:
                    round_ = len(asked) + 1
                    ring.ask(round_, inp=inputs(round_))
                    asked.append(round_)
                else:
                    round_, slot = ring.take()
                    # asked round k (from 1) took slot (k - 1) % 2; its output is its input's
                    assert slot is ring.slots[(round_ - 1) % 2]
                    np.testing.assert_array_equal(slot.out, 2 * inputs(round_))
                    taken.append(round_)
            while ring.pending:
                taken.append(ring.take()[0])
        finally:
            ring.close()
        assert taken == asked
        assert_no_child_process()

    def test_failed_round_names_itself_until_closed(self):
        ring = doubler(fail_round=2)
        try:
            ring.ask(1, inp=inputs(1))
            ring.ask(2, inp=inputs(2))
            assert ring.take()[0] == 1
            with pytest.raises(
                RuntimeError,
                match=rf"^round 2: doubling the input failed in doubler process {ring.pid}:",
            ) as info:
                ring.take()
        finally:
            ring.close()
        assert isinstance(info.value.__cause__, ArithmeticError)
        assert str(info.value.__cause__) == "no double for round 2"
        with pytest.raises(RuntimeError, match=r"^round 2: .* the run is closed$"):
            ring.take()  # the failed round stays pending
        assert_no_child_process()

    def test_killed_ring_names_the_signal(self):
        ring = doubler()
        try:
            ring.ask(1, inp=inputs(1))
            ring.take()
            os.kill(ring.pid, signal.SIGKILL)
            with pytest.raises(RuntimeError) as info:
                ring.ask(2, inp=inputs(2))  # a send may still reach the pipe
                ring.take()
        finally:
            ring.close()
        assert info.match(
            rf"^round 2: doubling the input failed in doubler process {ring.pid}: "
            "it was killed by signal 9$"
        )
        assert_no_child_process()
