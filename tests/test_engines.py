"""The engine contract: a seed gives the inline plan's bytes on every
engine, and a helper that fails or dies names its round.  Each loop is
built through ``experiment.make_run`` and run under one drawn
``engine.Plan``; each ``@example`` is the case of a hand-written test that
the property replaced."""

import os
import re
import signal
import time
from typing import NamedTuple

import pytest
from conftest import (
    LOCAL_TEST, LOCAL_TRAIN, SKEWED_SHARDS, assert_no_child_process, counted_evaluations,
    deadline, index_shards, planned,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slimfl import engine, experiment, federation
from slimfl.channel import Rayleigh, Rician, Twdp, config_for_decode_probs
from slimfl.config import ExperimentConfig
from slimfl.federation import SCHEMES, FederationConfig, LocalTraining
from slimfl.slimnet import Layout
from slimfl.training import STEP_FUNCTIONS, TrainConfig

SPLIT = engine.Plan((2,), False, False)


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
    round: int  # the round it fails


class Case(NamedTuple):
    shards: list  # of LOCAL_TRAIN
    plan: engine.Plan
    cfg: ExperimentConfig
    fault: Fault = Fault("", -1, 0)

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
    Checks the plan's processes, which rounds the process drew and
    evaluated, and that no process is left."""
    task = experiment.Task(LOCAL_TRAIN, LOCAL_TEST, case.shards, Layout.mlp(10, (8,), 4))
    fed, process = experiment.make_run(case.cfg, case.cfg.seeds[0], task), os.getpid()
    kind, helper, n = case.fault
    aggregated, drawn, inline, ring_evaluated = [], [], [], []
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

    def killing(run_round=fed.run_round):  # on the instance, as a round timer wraps it
        row = run_round()
        if kind == "kill" and fed.runs[0].round == n - 1:
            os.kill(fed.helpers[helper].pid, signal.SIGKILL)
        return row

    fed.run_round = killing
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
    assert (sorted(fed.evaluated), inline) == case.evaluated()
    assert drawn == [] or not case.plan.helper  # the ring draws every round
    vectors = [run.global_values.tobytes() for run in fed.runs]
    return fed, outcome, (repr(outcome), fed.evaluated, vectors, aggregated)


@settings(max_examples=80)
@given(case=cases())
# the split stack's, for each rule: parts [32, 32, 1] and [7, 32, 29] both pad
@example(case=Case(SKEWED_SHARDS, SPLIT, config(6, local_iters=2, rounds=2)))
@example(case=Case(SKEWED_SHARDS, SPLIT, config(6, local_iters=2, rule="widthwise", rounds=2)))
@example(case=Case(SKEWED_SHARDS, SPLIT, config(6, local_iters=2, rule="sandwich", rounds=2)))
def test_every_plan_writes_the_inline_bytes(case):
    inline = engine.Plan((1,) * len(case.plan.parts), False, False)
    assert run(case)[2] == run(case._replace(plan=inline))[2]


@st.composite
def faults(draw):
    case = draw(cases(with_helper=True))
    ring, rounds, every = len(case.workers()), case.cfg.rounds, case.cfg.eval_every
    helper = draw(st.integers(0, ring - 1 + case.plan.helper))
    at = {"draw": range(1, rounds + 1), "kill": range(2, rounds + 1)}
    if helper == ring:  # round r's evaluation fails as the ring draws round r + 2
        at["evaluation"] = range(every + 2, rounds + 1, every)
    kind = draw(st.sampled_from([kind for kind in sorted(at) if at[kind]]))
    return case._replace(fault=Fault(kind, helper, draw(st.sampled_from(at[kind]))))


@settings(max_examples=60)
@given(case=faults())
def test_a_failed_or_killed_helper_names_its_round(case):
    """The error names the round, the job, the helper's role and pid, and its
    traceback and cause or its signal; every run stops at that round."""
    fed, error, _ = run(case)
    kind, index, n = case.fault
    helper = fed.helpers[index]
    if helper is fed.helper:
        assert re.match("drawing .* evaluating", helper.task)
        role, task, stopped = "helper", re.escape(helper.task), [n - 1] * len(fed.runs)
    else:  # the runs before the worker's trained round n; those after did not start it
        i, lo, hi = case.workers()[index]
        role, task = "worker", f"local training of devices {lo}-{hi}"
        stopped = [n if j <= i else n - 1 for j in range(len(fed.runs))]
    assert [run.round for run in fed.runs] == stopped
    killed = kind == "kill"
    ending = " it was killed by signal 9" if killed else "\nTraceback .*\nArithmeticError: no .*\n"
    assert isinstance(error, engine.HelperError) and re.fullmatch(
        rf"round {n}: {task} failed in {role} process {helper.pid}:{ending}", str(error), re.DOTALL
    )
    assert error.__cause__ is None if killed else isinstance(error.__cause__, ArithmeticError)
