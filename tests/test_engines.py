"""The engine contract: a seed gives the inline plan's bytes on every
engine, and a helper that fails or dies names its round.  Each loop is
built through ``experiment.make_run`` (``conftest.make_loop``) and run under
one ``engine.Plan``.  Two ``hypothesis`` properties draw the case; two
parametrized tests run each named case of ``NAMED`` through the same check,
one id per case."""

import os
import re
import signal
import time
from typing import NamedTuple

import pytest
from conftest import (
    LAYOUT, LOCAL_TEST, LOCAL_TRAIN, SKEWED_SHARDS, assert_no_child_process,
    counted_evaluations, deadline, index_shards, make_loop, planned,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from slimfl import engine, experiment, federation
from slimfl.channel import Rayleigh, Rician, Twdp, config_for_decode_probs
from slimfl.config import ExperimentConfig
from slimfl.federation import SCHEMES, FederationConfig, LocalTraining
from slimfl.training import STEP_FUNCTIONS, TrainConfig


def config(k, batch_size=32, local_iters=1, rule="superposed", optimizer="adam", scheme="slimfl",
           weighting="empirical", fading=Rayleigh(), eval_every=1, rounds=3, seed=20):
    """A ``k``-device loop's config, on a channel where every decode level occurs."""
    return ExperimentConfig(
        seeds=(seed,), rounds=rounds, eval_every=eval_every,
        channel=config_for_decode_probs(0.7, 0.5, fading=fading),
        training=TrainConfig(lr=0.05, batch_size=batch_size, algorithm=rule, optimizer=optimizer),
        federation=FederationConfig(k, local_iters, scheme, aggregation_weighting=weighting),
    )


class Fault(NamedTuple):
    kind: str  # "draw" or "evaluation" raises in the helper's job; "kill" SIGKILLs it
    helper: int  # its index in Federation.helpers: the split runs' workers, then the ring
    # the round it fails; a helper killed at round rounds + 1 dies after its last answer
    round: int


NO_FAULT = Fault("", -1, 0)


class Case(NamedTuple):
    shards: list  # of LOCAL_TRAIN
    plan: engine.Plan
    cfg: ExperimentConfig
    fault: Fault = NO_FAULT

    def evaluated(self) -> tuple[list[int], list[int]]:
        """The rounds whose accuracies the loop holds when it ends, and those the
        process evaluated: the ring evaluates round r as it draws round r + 2."""
        last, every, ring = self.cfg.rounds - 2, self.cfg.eval_every, self.plan.helper
        end = self.fault.round if self.fault.kind else self.cfg.rounds + 1
        held = [r for r in range(every, end, every) if not ring or r > last or r < end - 2]
        return held, [r for r in held if not ring or r > last]

    def workers(self) -> list[tuple[int, int, int]]:
        """Each worker's run, first and last device, as ``_DevicePool`` bounds its part."""
        k = len(self.shards)
        return [(i, j * k // p, (j + 1) * k // p - 1)
                for i, p in enumerate(self.plan.parts) for j in range(1, p)]


@st.composite
def cases(draw, with_helper=False):
    shards = draw(st.lists(
        st.lists(st.integers(0, len(LOCAL_TRAIN) - 1), min_size=1, max_size=40, unique=True),
        min_size=1, max_size=30,
    ).map(index_shards))
    scheme = draw(st.sampled_from(SCHEMES))
    fading = draw(st.sampled_from([Rayleigh(), Rician(), Twdp()]))
    expected = scheme == "slimfl" and fading == Rayleigh()  # where expected weighting applies
    runs = 2 if scheme == "vanilla-1.5x" else 1
    parts = draw(st.lists(st.integers(1, min(3, len(shards))), min_size=runs, max_size=runs))
    helper = max(parts) == 1 and (with_helper or draw(st.booleans()))
    return Case(shards, engine.Plan(tuple(parts), helper, draw(st.booleans())), config(
        len(shards), draw(st.integers(1, 32)), draw(st.integers(1, 3)),
        draw(st.sampled_from(sorted(STEP_FUNCTIONS))), draw(st.sampled_from(["adam", "sgd"])),
        scheme, draw(st.sampled_from(["empirical", "expected"][:1 + expected])), fading,
        draw(st.integers(1, 3)), draw(st.integers(2, 8)), draw(st.integers(0, 2**34)),
    ))


def run(case: Case):
    """The loop, its ``run()``'s rows or ``HelperError``, and its bytes: the
    rows at full precision, the accuracies, the final global vectors, and
    each aggregated stack and its levels (a sum hides two devices swapped).
    Checks the plan's processes and that the ring alone runs under
    ``SCHED_BATCH``, which rounds the process drew and evaluated, and that
    no process is left."""
    task = experiment.Task(LOCAL_TRAIN, LOCAL_TEST, case.shards, LAYOUT)
    fed, process = make_loop(case.cfg, task), os.getpid()
    kind, helper, n = case.fault
    aggregated, drawn, inline, ring_evaluated, batch = [], [], [], [], []
    aggregate, fill = federation.aggregate, LocalTraining._fill
    # the drawn worker's part draws from its first device's stream first; None: the ring
    target = {h: fed.runs[i].local.fading_streams.prefixes[lo]
              for h, (i, lo, _) in enumerate(case.workers())}.get(helper)

    def recorded(global_values, device_values, levels, *args):
        # a split stack's rows are a shared buffer: their bytes now
        aggregated.append((device_values.tobytes(), levels.tobytes()))
        return aggregate(global_values, device_values, levels, *args)

    def faulty_fill(local, slot, round_):
        if os.getpid() == process:
            drawn.append(round_)
        elif round_ == n and target in (None, local.fading_streams.prefixes[0]):
            if kind == "draw":
                raise ArithmeticError(f"no draw in round {n}")
            if kind == "kill":  # still drawing round n when it is killed
                time.sleep(10)
        fill(local, slot, round_)

    def faulty_accuracies(loop, vectors):
        if os.getpid() != process:  # counted in the ring's fork-time copy
            ring_evaluated.append(None)
            if kind == "evaluation" and len(ring_evaluated) == (n - 2) // loop.eval_every:
                raise ArithmeticError(f"no accuracy for round {n - 2}")
        return accuracies(loop, vectors)

    def observed(run_round=fed.run_round):  # on the instance, as a round timer wraps it
        row = run_round()
        if fed.runs[0].round == 1:  # every helper has answered, so set its policy
            batch.extend(os.sched_getscheduler(h.pid) == os.SCHED_BATCH for h in fed.helpers)
        if kind == "kill" and fed.runs[0].round == n - 1:
            os.kill(fed.helpers[helper].pid, signal.SIGKILL)
        return row

    fed.run_round = observed
    with planned(lambda sizes: case.plan), pytest.MonkeyPatch.context() as mp, deadline(60):
        mp.setattr(federation, "aggregate", recorded)
        mp.setattr(LocalTraining, "_fill", faulty_fill)
        counted_evaluations(mp, inline)
        accuracies = federation.Federation._accuracies
        mp.setattr(federation.Federation, "_accuracies", faulty_accuracies)
        try:
            outcome = fed.run()
        except engine.HelperError as error:
            outcome = error
    assert_no_child_process()
    split = [worker for run in fed.runs for worker in getattr(run.local, "workers", [])]
    assert fed.plan == case.plan and [run.local.parts for run in fed.runs] == [*case.plan.parts]
    assert fed.helpers == split + [fed.helper] * case.plan.helper
    assert [worker.spin for worker in split] == [case.plan.spin] * len(split)
    # read after round 1, unless it failed
    assert batch == ([False] * len(split) + [True] * case.plan.helper) * (n != 1)
    assert (sorted(fed.evaluated), inline) == case.evaluated()
    assert drawn == [] or not case.plan.helper  # the ring draws every round
    vectors = [run.global_values.tobytes() for run in fed.runs]
    return fed, outcome, (repr(outcome), fed.evaluated, vectors, aggregated)


def assert_inline_bytes(case: Case):
    inline = engine.Plan((1,) * len(case.plan.parts), False, False)
    assert run(case)[2] == run(case._replace(plan=inline))[2]


def assert_fault_named(case: Case):
    """The error names the round, the job, the helper's role and pid, and its
    traceback and cause or its signal; every run stops at that round."""
    fed, error, _ = run(case)
    kind, index, n = case.fault
    named = min(n, case.cfg.rounds)  # a helper dead after the last round: the last
    helper = fed.helpers[index]
    if helper is fed.helper:
        assert re.match("drawing .* evaluating", helper.task)
        role, task, stopped = "helper", re.escape(helper.task), [n - 1] * len(fed.runs)
    else:  # the runs before the worker's trained round n; those after did not start it
        i, lo, hi = case.workers()[index]
        role, task = "worker", f"local training of devices {lo}-{hi}"
        stopped = [named if j <= i else n - 1 for j in range(len(fed.runs))]
    assert [run.round for run in fed.runs] == stopped
    killed = kind == "kill"
    ending = " it was killed by signal 9" if killed else "\nTraceback .*\nArithmeticError: no .*\n"
    assert isinstance(error, engine.HelperError) and re.fullmatch(
        rf"round {named}: {task} failed in {role} process {helper.pid}:{ending}", str(error),
        re.DOTALL,
    )
    assert error.__cause__ is None if killed else isinstance(error.__cause__, ArithmeticError)


def skewed(plan: engine.Plan, fault=NO_FAULT, **cfg) -> Case:
    """A case of the six skewed shards."""
    return Case(SKEWED_SHARDS, plan, config(6, **cfg), fault)


RING, PAIR_RING = engine.Plan((1,), True, False), engine.Plan((1, 1), True, False)
SPLIT, PAIR_SPLIT = engine.Plan((2,), False, False), engine.Plan((2, 2), False, False)
SPINNING = SPLIT._replace(spin=True)
# the named cases: each is one id of the test of its kind below
NAMED = {
    # the split stack's, for each rule: parts [32, 32, 1] and [7, 32, 29] both pad
    **{f"split-rule-{rule}": skewed(SPLIT, local_iters=2, rule=rule, rounds=2)
       for rule in sorted(STEP_FUNCTIONS)},
    "split-slimfl": skewed(SPLIT, batch_size=16, local_iters=2, rounds=4, seed=3),
    "split-vanilla-1.5x": skewed(
        PAIR_SPLIT, batch_size=16, local_iters=2, scheme="vanilla-1.5x", rounds=4, seed=3,
    ),
    "ring-evaluating-every-2nd-round": skewed(RING, local_iters=2, eval_every=2, rounds=5),
    "ring-draw-fails": skewed(RING, Fault("draw", 0, 2), seed=47),
    # round 2's evaluation, as the ring draws round 4
    "ring-evaluation-fails": skewed(RING, Fault("evaluation", 0, 4), rounds=4, seed=56),
    "ring-killed": skewed(RING, Fault("kill", 0, 2), rounds=5, seed=57),
    "ring-killed-in-a-pair": skewed(
        PAIR_RING, Fault("kill", 0, 3), scheme="vanilla-1.5x", rounds=5, seed=51,
    ),
    "ring-killed-after-the-last-round": skewed(RING, Fault("kill", 0, 4), seed=58),
    "worker-draw-fails-blocking": skewed(SPLIT, Fault("draw", 0, 2), seed=52),
    "worker-draw-fails-spinning": skewed(SPINNING, Fault("draw", 0, 2), seed=52),
    "worker-killed-blocking": skewed(SPLIT, Fault("kill", 0, 2), seed=53),
    "worker-killed-spinning": skewed(SPINNING, Fault("kill", 0, 2), seed=53),
    # the second run's worker, once the first run has trained round 3
    "worker-killed-in-a-pair": skewed(
        PAIR_SPLIT, Fault("kill", 1, 3), scheme="vanilla-1.5x", rounds=5, seed=51,
    ),
    "worker-killed-after-the-last-round": skewed(SPLIT, Fault("kill", 0, 4), seed=59),
}


@pytest.mark.parametrize("name", [name for name, case in NAMED.items() if not case.fault.kind])
def test_named_plan_writes_the_inline_bytes(name):
    assert_inline_bytes(NAMED[name])


@pytest.mark.parametrize("name", [name for name, case in NAMED.items() if case.fault.kind])
def test_named_fault_names_its_round(name):
    assert_fault_named(NAMED[name])


@settings(max_examples=80)
@given(case=cases())
def test_every_plan_writes_the_inline_bytes(case):
    assert_inline_bytes(case)


@st.composite
def faults(draw):
    case = draw(cases(with_helper=True))
    ring, rounds, every = len(case.workers()), case.cfg.rounds, case.cfg.eval_every
    helper = draw(st.integers(0, ring - 1 + case.plan.helper))
    at = {"draw": range(1, rounds + 1), "kill": range(2, rounds + 2)}
    if helper == ring:  # round r's evaluation fails as the ring draws round r + 2
        at["evaluation"] = range(every + 2, rounds + 1, every)
    kind = draw(st.sampled_from([kind for kind in sorted(at) if at[kind]]))
    return case._replace(fault=Fault(kind, helper, draw(st.sampled_from(at[kind]))))


@settings(max_examples=60)
@given(case=faults())
def test_a_failed_or_killed_helper_names_its_round(case):
    assert_fault_named(case)
