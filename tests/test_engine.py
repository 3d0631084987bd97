"""The CPU plan, one per round loop: how many parts each run's stack
trains in, whether the loop forks its one spare-CPU helper, which draws
every run's inputs ahead and evaluates its global models behind, and
whether split stacks' workers spin; and the two-slot ``Ring`` that the
helper is."""

import ast
import contextlib
import dataclasses
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_no_child_process, counted_evaluations, planned, sampled_rounds
from hypothesis import example, given, settings
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


@contextlib.contextmanager
def counts(cpus: int, threads: int, helpers: int = 0, platform: str = "linux"):
    """What ``engine.plan`` finds: ``cpus`` CPUs, this process's ``threads``
    and its ``helpers`` live helpers, on ``platform``."""
    listdir = os.listdir
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "available_cpus", lambda: cpus)
        mp.setattr(
            os, "listdir",
            lambda path=".": ["t"] * threads if path == "/proc/self/task" else listdir(path),
        )
        mp.setattr(engine, "_PROCESS_ENDS", {object() for _ in range(helpers)})
        mp.setattr(sys, "platform", platform)
        yield


def test_off_linux_one_part_and_no_sampler():
    with counts(cpus=64, threads=1, platform="darwin"):
        assert engine.plan([10, 100]) == engine.Plan((1, 1), False, False)


@pytest.mark.skipif(not LINUX, reason="the plan splits on Linux only")
@pytest.mark.parametrize(
    "cpus, n_devices, parts",
    [(2, 100, 2), (4, 100, 4), (8, 100, 8), (64, 100, 8), (4, 36, 3), (4, 24, 2), (4, 23, 1),
     (64, 11, 1), (1, 100, 1)],
)
def test_parts_are_devices_over_12_capped_by_the_cpus(monkeypatch, cpus, n_devices, parts):
    assert engine.MIN_DEVICES_PER_PART == 12
    monkeypatch.setattr(engine, "available_cpus", lambda: cpus)
    assert engine.plan([n_devices]).parts == (parts,)


@pytest.mark.skipif(not LINUX, reason="the helper runs on Linux only")
def test_sampler_needs_one_part_and_a_cpu_beyond_threads_and_helpers(monkeypatch):
    """The loop's one helper, which samples every run's inputs, needs every
    stack in one part and a CPU beyond the busy threads."""
    monkeypatch.setattr(engine, "available_cpus", lambda: threads() + 1)
    assert engine.plan([10]).helper
    assert engine.plan([10, 10]) == engine.Plan((1, 1), True, True)  # one for both runs
    assert not engine.plan([24]).helper  # a split stack already uses the CPUs
    assert not engine.plan([10, 24]).helper  # as does any split stack of the loop
    with monkeypatch.context() as mp:
        mp.setattr(engine, "_PROCESS_ENDS", {object()})  # a live helper takes the CPU
        assert not engine.plan([10]).helper
    monkeypatch.setattr(engine, "available_cpus", threads)
    assert not engine.plan([10]).helper


@pytest.mark.skipif(not LINUX, reason="the helper runs on Linux only")
def test_fresh_process_with_one_blas_thread_samples():
    """The unpatched rule that the benchmark's one-part workloads meet.
    Under pytest it never forks the helper: the ``faulthandler_timeout``
    watchdog is a second thread."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: no CPU to spare for the helper")
    code = "from slimfl import engine; print(tuple(engine.plan([10])))"
    assert fresh_process(code) == ((1,), True, True)


def fresh_process(code: str):
    """The value that ``code`` prints, run in a fresh Python with one BLAS
    thread."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **ONE_BLAS_THREAD}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    return ast.literal_eval(out.stdout.strip())


def tiny_config(scheme: str, n_devices: int = 10):
    """Four rounds of the reference run, of ``scheme`` over ``n_devices``."""
    cfg = load_config(REFERENCE)
    federation = dataclasses.replace(cfg.federation, scheme=scheme, n_devices=n_devices)
    return dataclasses.replace(cfg, rounds=4, federation=federation)


def test_workers_spin_only_when_every_busy_thread_has_a_cpu():
    """One 24-device run on 2 CPUs splits in two, and its worker and the
    process poll; a split ``vanilla-1.5x`` pair (two workers) or one more
    thread leaves a poller without a CPU, and blocks.  Forced to poll, a
    K=100 split pair on 2 CPUs ran 95-112 rounds/s against 113-122 blocking
    (5 alternations)."""
    with counts(cpus=2, threads=1):
        assert engine.plan([24]) == engine.Plan((2,), False, True)
        assert engine.plan([24, 24]).spin is False
    with counts(cpus=2, threads=2):
        assert engine.plan([24]).spin is False


def one_helper_rule(sizes) -> engine.Plan:
    """The rule that ``engine.plan`` states, read as ``engine.plan`` reads
    its counts: a stack trains in one part per CPU with at least
    ``MIN_DEVICES_PER_PART`` devices each; the loop forks its one helper
    only if no stack is split and a CPU is idle beside this process's
    threads and its live helpers; split stacks' workers spin only if the
    threads, the live helpers and every process the loop forks each have a
    CPU.  Off Linux: one part each, no helper, no spinning."""
    if not sys.platform.startswith("linux"):
        return engine.Plan(tuple(1 for _ in sizes), False, False)
    cpus = engine.available_cpus()
    idle = cpus - len(os.listdir("/proc/self/task")) - len(engine._PROCESS_ENDS)
    parts = tuple(max(1, min(cpus, n // engine.MIN_DEVICES_PER_PART)) for n in sizes)
    workers = sum(parts) - len(parts)
    helper = workers == 0 and idle >= 1
    return engine.Plan(parts, helper, workers + helper <= idle)


@settings(max_examples=300)
@given(
    # mostly the few CPUs where a thread, a helper or a part tips the rule
    cpus=st.one_of(st.integers(1, 8), st.integers(1, 64)), threads=st.integers(1, 4),
    helpers=st.integers(0, 3), sizes=st.lists(st.integers(1, 150), min_size=1, max_size=2),
    platform=st.sampled_from(["linux", "darwin"]),
)
# a vanilla-1.5x pair on 2 CPUs: one helper for both runs
@example(cpus=2, threads=1, helpers=0, sizes=[10, 10], platform="linux")
def test_plan_is_the_one_helper_rule(cpus, threads, helpers, sizes, platform):
    """One plan per loop, taken before anything forks: each run's parts,
    the loop's one helper or none, and the spin rule."""
    with counts(cpus, threads, helpers, platform):
        assert engine.plan(sizes) == one_helper_rule(sizes)


def forks_counted(plan: engine.Plan) -> int:
    """The helpers that ``plan`` counts: a worker per part after the first,
    and the loop's one spare-CPU helper."""
    return sum(plan.parts) - len(plan.parts) + plan.helper


@pytest.mark.skipif(not LINUX, reason="helpers fork on Linux only")
@pytest.mark.parametrize(
    "scheme, n_devices", [("slimfl", 10), ("vanilla-1.5x", 10), ("slimfl", 24)],
    ids=["one-run", "pair", "split"],
)
def test_helpers_started_are_the_plans(monkeypatch, scheme, n_devices):
    """Two CPUs beyond the threads: after the first round of a loop driven
    through ``run()``, the live helpers are the ones its plan counted, one
    of them: a one-run loop's or a pair's spare-CPU helper, or a split
    run's worker."""
    monkeypatch.setattr(engine, "available_cpus", lambda: threads() + 2)
    fed = experiment.make_run(tiny_config(scheme, n_devices), 4)
    live, run_round = [], fed.run_round

    def first_round():
        row = run_round()
        live.append(len(engine._PROCESS_ENDS))
        return row

    fed.run_round = first_round
    fed.run()
    assert live[0] == forks_counted(fed.plan) == 1
    assert (fed.helper is not None) == (n_devices == 10)
    assert_no_child_process()


# tiny_config(scheme, n_devices)'s round loop driven through run(), in a
# process that counts its _fill and _accuracies calls (a helper counts its
# own): the helpers live after each round, the process's draws, each run's
# part count, whether the loop's helpers spin, the rounds the process
# evaluated, every evaluated round with its accuracy count, and its rows
LOOP = f"""
import dataclasses
from slimfl import engine, experiment, federation
from slimfl.config import load_config
from slimfl.metrics import metrics_rows
fills, fill = [], federation.LocalTraining._fill
federation.LocalTraining._fill = lambda *args: fills.append(1) or fill(*args)
inline, accuracies = [], federation.Federation._accuracies
federation.Federation._accuracies = lambda fed, vectors: (
    inline.append(fed.runs[0].round) or accuracies(fed, vectors)
)
cfg = load_config({str(REFERENCE)!r})
federation = dataclasses.replace(cfg.federation, scheme={{scheme!r}}, n_devices={{n_devices}})
fed = experiment.make_run(dataclasses.replace(cfg, rounds=4, federation=federation), 4)
live, run_round = [], fed.run_round
fed.run_round = lambda: (run_round(), live.append(len(engine._PROCESS_ENDS)))[0]
rows = metrics_rows(fed.run())
print((
    live, len(fills), [run.local.parts for run in fed.runs],
    [helper.spin for helper in fed.helpers], inline,
    [(r, len(fed.evaluated[r])) for r in sorted(fed.evaluated)], rows,
))
"""


def inline_rows(scheme: str):
    with sampled_rounds(False):
        return metrics_rows(experiment.make_run(tiny_config(scheme), 4).run())


@pytest.mark.skipif(not LINUX, reason="the helper runs on Linux only")
def test_fresh_process_run_samples_and_evaluates_on_the_spare_cpu():
    """A one-run loop driven through ``run()`` under the unpatched rule
    forks exactly one helper, which draws every round (the process draws
    none) and evaluates every round but the last two; the rows are the
    inline run's."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: no CPU to spare for the helper")
    live, fills, parts, _, inline, evaluated, rows = fresh_process(
        LOOP.format(scheme="slimfl", n_devices=10)
    )
    assert (live, fills, parts, inline) == ([1] * 4, 0, [1], [3, 4])
    assert evaluated == [(r, 2) for r in range(1, 5)]
    assert rows == inline_rows("slimfl")


@pytest.mark.skipif(not LINUX, reason="the helper runs on Linux only")
def test_fresh_process_pair_forks_one_helper_for_both_runs():
    """A ``vanilla-1.5x`` pair under the unpatched rule forks one helper,
    which draws both runs' inputs and evaluates both runs' global models;
    the rows are the inline pair's."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: no CPU to spare for the helper")
    live, fills, parts, _, inline, evaluated, rows = fresh_process(
        LOOP.format(scheme="vanilla-1.5x", n_devices=10)
    )
    assert (live, fills, parts, inline) == ([1] * 4, 0, [1, 1], [3, 4])
    # each run has one width: two accuracies a round
    assert evaluated == [(r, 2) for r in range(1, 5)]
    assert rows == inline_rows("vanilla-1.5x")


@pytest.mark.skipif(not LINUX, reason="workers spin on Linux only")
def test_fresh_process_split_run_spins_and_split_pair_blocks():
    """The unpatched rule on 2 CPUs, as the benchmark's fanout meets it: a
    24-device run splits in two, forks its worker and no helper, and the
    worker spins; a pair's two workers block."""
    if len(os.sched_getaffinity(0)) != 2:
        pytest.skip("one split run's worker takes the last CPU on 2 CPUs only")
    live, fills, parts, spins, inline, _, _ = fresh_process(
        LOOP.format(scheme="slimfl", n_devices=24)
    )
    # the process draws its part's inputs, and its worker the other part's;
    # with no helper, the process evaluates every round
    assert (live, fills, parts, spins, inline) == ([1] * 4, 4, [2], [True], [1, 2, 3, 4])
    live, fills, parts, spins, inline, _, _ = fresh_process(
        LOOP.format(scheme="vanilla-1.5x", n_devices=24)
    )
    assert (live, fills, parts, spins, inline) == (
        [2] * 4, 8, [2, 2], [False, False], [1, 2, 3, 4]
    )


@pytest.mark.skipif(not LINUX, reason="the helper runs on Linux only")
def test_pair_evaluates_both_runs_in_one_evaluator():
    """A pair on a spare CPU: the loop takes its one plan before anything
    forks, and its one helper draws both runs' inputs and evaluates both
    runs' global models; the rows are the inline pair's."""
    live = []  # the helpers running at each plan

    def plan(sizes):
        live.append(len(engine._PROCESS_ENDS))
        return engine.Plan((1, 1), True, False)

    inline = []
    with planned(plan), pytest.MonkeyPatch.context() as mp:
        counted_evaluations(mp, inline)
        fed = experiment.make_run(tiny_config("vanilla-1.5x"), 4)
        rows = metrics_rows(fed.run())
    assert fed.helper is not None and live == [0]
    # the helper evaluated rounds 1 and 2, the process the last two
    assert inline == [3, 4] and sorted(fed.evaluated) == [1, 2, 3, 4]
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
