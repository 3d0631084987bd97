"""Suite-wide checks and the one ``hypothesis`` profile, and helpers for
tests of the split local-training engine and of the spare-CPU helpers, a
run's sampler and its ``Federation``'s evaluator."""

import contextlib
import os

import pytest
from hypothesis import settings

from slimfl import engine, federation

# no deadline (a round can take a while on a busy machine), and no example
# database: a property replays nothing from, and writes nothing to, disk
settings.register_profile("suite", deadline=None, database=None)
settings.load_profile("suite")


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
    spare CPU every run starts a sampler, and a ``Federation`` driven
    through ``run`` one evaluator for all its runs.  Under pytest the rule
    finds no spare CPU on 2 CPUs: the ``faulthandler_timeout`` watchdog is
    a second thread."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "plan", lambda n: (1, on))
        yield


@contextlib.contextmanager
def evaluated_ahead():
    """``sampled_rounds()``, with an evaluator however a ``Federation`` is
    driven: one whose rounds are driven through ``run_round`` alone starts
    one too (and its rows keep NaN accuracies)."""
    with sampled_rounds(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(federation.Federation, "ahead", True)
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
