"""Suite-wide checks, and helpers for tests of the split local-training
engine and of the spare-CPU helpers, the sampler and the evaluator."""

import contextlib
import os

import pytest

from slimfl import engine, federation


@contextlib.contextmanager
def split_stacks(min_devices=2, cpus=2):
    """Runs whose ``engine.plan`` splits a stack of at least ``2 *
    min_devices`` devices, into up to ``cpus`` parts, and never samples."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "plan", lambda n: (max(1, min(cpus, n // min_devices)), False))
        yield


@contextlib.contextmanager
def sampled_rounds(on=True):
    """Runs whose ``engine.plan`` trains the stack in one process and finds
    a CPU to spare (``on``) or never does, whatever the rule finds.  On a
    spare CPU every run starts a sampler, and a run driven through
    ``Federation.run`` an evaluator too.  Under pytest the rule finds no
    spare CPU on 2 CPUs: the ``faulthandler_timeout`` watchdog is a second
    thread."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "plan", lambda n: (1, on))
        yield


@contextlib.contextmanager
def evaluated_ahead():
    """``sampled_rounds()``, with an evaluator however a run is driven: a
    run whose rounds are driven through ``Federation.run_round`` alone
    starts one too (and its rows keep NaN accuracies)."""
    run_round = federation.FederatedRun.run_round
    with sampled_rounds(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(federation.FederatedRun, "run_round", lambda run, ahead: run_round(run, True))
        yield


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process unreaped (a local-training
    worker its run did not close)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process{f' ({pid} exited unreaped)' if pid else ''}")
