"""Suite-wide checks and the one ``hypothesis`` profile, and helpers that
pick a round loop's engine plan for tests of the split local-training
engine, its spinning or blocking handoffs, and the spare-CPU helpers, a
run's sampler and its ``Federation``'s evaluator.  Each helper substitutes
``engine.plan``, the one function that reads the CPUs, and ``spinning``
amends the plan in force, so it composes with ``split_stacks``."""

import contextlib
import os
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from slimfl import engine, federation

# no deadline (a round can take a while on a busy machine), no example
# database (a property replays nothing from, and writes nothing to, disk),
# and a failing property prints the @reproduce_failure blob that replays it
settings.register_profile("suite", deadline=None, database=None, print_blob=True)
settings.load_profile("suite")
# what hypothesis still writes (its constants and unicode caches) goes to a
# directory of this session's, removed when it ends, not to the checkout
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="slimfl-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@contextlib.contextmanager
def planned(plan):
    """Round loops whose ``engine.plan`` is ``plan(sizes, evaluates)``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "plan", plan)
        yield


def split_stacks(min_devices=2, cpus=2):
    """Round loops whose plan splits each stack of at least ``2 *
    min_devices`` devices, into up to ``cpus`` parts, never samples nor
    forks an evaluator, and whose workers block."""
    return planned(lambda sizes, evaluates: engine.Plan(
        tuple((max(1, min(cpus, n // min_devices)), False) for n in sizes), False, False
    ))


def sampled_rounds(on=True):
    """Round loops whose plan trains each stack in one process and finds a
    CPU to spare (``on``) or never does, whatever the rule finds.  On a
    spare CPU every run starts a sampler, and a ``Federation`` driven
    through ``run`` one evaluator for all its runs.  Under pytest the rule
    finds no spare CPU on 2 CPUs: the ``faulthandler_timeout`` watchdog is
    a second thread."""
    return planned(lambda sizes, evaluates: engine.Plan(
        ((1, on),) * len(sizes), on and evaluates, False
    ))


@contextlib.contextmanager
def spinning(on=True):
    """The plan in force, with split stacks' workers and the process
    polling for each other's messages before they block (``on``) or always
    blocking, whatever the rule finds.  Under pytest it finds no CPU to poll
    on 2 CPUs: the ``faulthandler_timeout`` watchdog is a second thread."""
    plan = engine.plan
    with planned(lambda sizes, evaluates: plan(sizes, evaluates)._replace(spin=on)):
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
