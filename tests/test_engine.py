"""The CPU plan, one per round loop: how many parts each run's stack
trains in, whether a spare CPU hosts a sampler that draws its inputs ahead
and the evaluator that evaluates the loop's global models behind, and
whether split stacks' workers spin; and the two-slot ``Ring`` that both
spare-CPU helpers are."""

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
from conftest import assert_no_child_process, planned, sampled_rounds
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
        assert engine.plan([10, 100], True) == engine.Plan(((1, False),) * 2, False, False)


@pytest.mark.skipif(not LINUX, reason="the plan splits on Linux only")
@pytest.mark.parametrize(
    "cpus, n_devices, parts",
    [(2, 100, 2), (4, 100, 4), (8, 100, 8), (64, 100, 8), (4, 36, 3), (4, 24, 2), (4, 23, 1),
     (64, 11, 1), (1, 100, 1)],
)
def test_parts_are_devices_over_12_capped_by_the_cpus(monkeypatch, cpus, n_devices, parts):
    assert engine.MIN_DEVICES_PER_PART == 12
    monkeypatch.setattr(engine, "available_cpus", lambda: cpus)
    assert engine.plan([n_devices], False).runs[0][0] == parts


@pytest.mark.skipif(not LINUX, reason="the sampler runs on Linux only")
def test_sampler_needs_one_part_and_a_cpu_beyond_threads_and_helpers(monkeypatch):
    monkeypatch.setattr(engine, "available_cpus", lambda: threads() + 1)
    assert engine.plan([10], False).runs == ((1, True),)
    assert engine.plan([24], False).runs == ((2, False),)  # a split stack already uses the CPUs
    assert engine.plan([10, 10], False).runs == ((1, True), (1, False))  # nor a sampler
    with monkeypatch.context() as mp:
        mp.setattr(engine, "_PROCESS_ENDS", {object()})  # a live helper takes the CPU
        assert engine.plan([10], False).runs == ((1, False),)
    monkeypatch.setattr(engine, "available_cpus", threads)
    assert engine.plan([10], False).runs == ((1, False),)


@pytest.mark.skipif(not LINUX, reason="the sampler runs on Linux only")
def test_fresh_process_with_one_blas_thread_samples():
    """The unpatched rule that the benchmark's one-part workloads meet.
    Under pytest it never samples: the ``faulthandler_timeout`` watchdog is
    a second thread."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: no CPU to spare for a sampler")
    code = "from slimfl import engine; print(engine.plan([10], False).runs[0])"
    assert fresh_process(code) == (1, True)


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


def test_workers_spin_only_when_every_busy_thread_has_a_cpu():
    """One 24-device run on 2 CPUs splits in two, and its worker and the
    process poll; a split ``vanilla-1.5x`` pair (two workers) or one more
    thread leaves a poller without a CPU, and blocks.  Forced to poll, a
    K=100 split pair on 2 CPUs ran 95-112 rounds/s against 113-122 blocking
    (5 alternations)."""
    with counts(cpus=2, threads=1):
        assert engine.plan([24], True) == engine.Plan(((2, False),), False, True)
        assert engine.plan([24, 24], True).spin is False
    with counts(cpus=2, threads=2):
        assert engine.plan([24], True).spin is False


def parent_rule(sizes, evaluates: bool) -> engine.Plan:
    """The rule that ``engine.plan`` restates, as the round loop once
    applied it: each run, in order, took its own plan, counting the
    helpers forked before it, and forked its helpers, the evaluator right
    after the first sampler; once all had started, split stacks' workers
    spun when every busy thread had a CPU.  Reads its counts as
    ``engine.plan`` does."""
    linux = sys.platform.startswith("linux")
    live = len(engine._PROCESS_ENDS)  # the helpers forked so far

    def busy():
        return len(os.listdir("/proc/self/task")) + live

    def run_plan(n_devices):
        if not linux:
            return 1, False
        cpus = engine.available_cpus()
        parts = max(1, min(cpus, n_devices // engine.MIN_DEVICES_PER_PART))
        return parts, parts == 1 and cpus > busy()

    runs, evaluator = [], False
    for n_devices in sizes:
        parts, spare = run_plan(n_devices)
        runs.append((parts, spare))
        live += parts - 1 + spare
        if spare and evaluates and not evaluator:
            evaluator = True
            live += 1
    return engine.Plan(tuple(runs), evaluator, linux and busy() <= engine.available_cpus())


@settings(max_examples=300)
@given(
    # mostly the few CPUs where a thread, a helper or a part tips the rule
    cpus=st.one_of(st.integers(1, 8), st.integers(1, 64)), threads=st.integers(1, 4),
    helpers=st.integers(0, 3), evaluates=st.booleans(),
    sizes=st.lists(st.integers(1, 150), min_size=1, max_size=2),
    platform=st.sampled_from(["linux", "darwin"]),
)
# the second sampler takes the last CPU: the evaluator beside the first is
# the one evaluator, so every busy thread still has a CPU
@example(cpus=4, threads=1, helpers=0, evaluates=True, sizes=[10, 10], platform="linux")
def test_plan_is_the_per_run_rule(cpus, threads, helpers, evaluates, sizes, platform):
    """One plan per loop, taken before anything forks, is the plan the loop
    once took run by run, counting each earlier run's forks, and then the
    spin rule."""
    with counts(cpus, threads, helpers, platform):
        assert engine.plan(sizes, evaluates) == parent_rule(sizes, evaluates)


def forks_counted(plan: engine.Plan) -> int:
    """The helpers that ``plan`` counts: a worker per part after the first,
    the samplers and the evaluator."""
    return sum(parts - 1 + sampled for parts, sampled in plan.runs) + plan.evaluates


@pytest.mark.skipif(not LINUX, reason="helpers fork on Linux only")
@pytest.mark.parametrize(
    "scheme, n_devices, forks",
    [("slimfl", 10, 2), ("vanilla-1.5x", 10, 2), ("slimfl", 24, 1)],
    ids=["one-run", "pair", "split"],
)
def test_helpers_started_are_the_plans(monkeypatch, scheme, n_devices, forks):
    """Two CPUs beyond the threads: after the first round of a loop driven
    through ``run()``, the live helpers are the ones its plan counted: a
    one-run loop's sampler and evaluator, a pair's first sampler and the
    evaluator (the second run trains inline), or a split run's worker."""
    monkeypatch.setattr(engine, "available_cpus", lambda: threads() + 2)
    cfg = tiny_config(scheme)
    cfg = dataclasses.replace(
        cfg, federation=dataclasses.replace(cfg.federation, n_devices=n_devices)
    )
    fed = experiment.make_run(cfg, 4)
    live, run_round = [], fed.run_round

    def first_round():
        row = run_round()
        live.append(len(engine._PROCESS_ENDS))
        return row

    fed.run_round = first_round
    fed.run()
    assert live[0] == forks_counted(fed.plan) == forks
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
def test_pair_evaluates_both_runs_in_one_evaluator():
    """A pair whose first run alone gets a spare CPU: the loop takes its one
    plan before anything forks, and its one evaluator evaluates both runs'
    global models every round; the rows are the inline pair's."""
    live = []  # the helpers running at each plan

    def plan(sizes, evaluates):
        live.append(len(engine._PROCESS_ENDS))
        return engine.Plan(((1, True), (1, False)), evaluates, False)

    with planned(plan):
        fed = experiment.make_run(tiny_config("vanilla-1.5x"), 4)
        rows = metrics_rows(fed.run())
    half, full = fed.runs
    assert (half.local.sampler is not None, full.local.sampler) == (True, None)
    assert live == [0]
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
