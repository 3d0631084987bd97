"""Suite-wide checks, and helpers for tests of the split local-training
engine and of the sampler."""

import contextlib
import os

import pytest

from slimfl import federation


@contextlib.contextmanager
def split_stacks(min_devices=2, cpus=2):
    """Stacks of at least ``2 * min_devices`` devices split, into up to ``cpus`` parts."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(federation, "MIN_DEVICES_PER_PART", min_devices)
        mp.setattr(federation, "available_cpus", lambda: cpus)
        yield


@contextlib.contextmanager
def sampled_rounds(on=True):
    """Runs whose first round starts a sampler (``on``) or never does,
    whatever the rule finds.  Under pytest it finds no spare CPU on 2 CPUs:
    the ``faulthandler_timeout`` watchdog is a second thread."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(federation, "spare_cpus", lambda: int(on))
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
