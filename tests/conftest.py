"""Suite-wide checks and the one ``hypothesis`` profile; the small task that
the engine tests train on, and ``make_loop``, which builds every round loop
of the federation and engine tests through ``experiment.make_run``; and
helpers that pick a round loop's engine plan.

An engine is where a round loop's work runs: inline, in the loop's one
spare-CPU helper, which draws every run's inputs ahead and evaluates
behind, or in a split stack's workers, whose handoffs spin or block.  Each
plan helper substitutes ``engine.plan``, the one function that reads the
CPUs, and ``spinning`` amends the plan in force, so it composes with
``split_stacks``; ``tests/test_engines.py`` gives ``planned`` whole
plans."""

import contextlib
import os
import signal
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from slimfl import engine, experiment, federation
from slimfl import rng as rngmod
from slimfl.config import ExperimentConfig
from slimfl.datasets import Dataset, Shard, dirichlet_partition
from slimfl.slimnet import Layout

# no deadline (a round can take a while on a busy machine), no example
# database (a property replays nothing from, and writes nothing to, disk),
# and a failing property prints the @reproduce_failure blob that replays it
settings.register_profile("suite", deadline=None, database=None, print_blob=True)
settings.load_profile("suite")
# what hypothesis still writes (its constants and unicode caches) goes to a
# directory of this session's, removed when it ends, not to the checkout
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="slimfl-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def make_task(seed=0, n=200, dim=10, classes=4):
    """A random training set of ``n`` samples and a balanced 80-sample test set."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    y = rng.integers(0, classes, size=n).astype(np.int64)
    train = Dataset(x, y, classes)
    tx = rng.normal(size=(80, dim))
    ty = np.repeat(np.arange(classes, dtype=np.int64), 20)
    return train, Dataset(tx, ty, classes)


LOCAL_TRAIN, LOCAL_TEST = make_task(20)
LAYOUT = Layout.mlp(10, (8,), 4)
# skewed shards, several smaller than the batch: padded batches of several lengths
SKEWED_SHARDS = dirichlet_partition(LOCAL_TRAIN.y, 6, 0.1, rngmod.stream(20, "partition"))


def index_shards(index_lists) -> list[Shard]:
    """One shard of ``LOCAL_TRAIN`` per list of its indices."""
    return [
        Shard(np.array(indices), np.bincount(LOCAL_TRAIN.y[indices], minlength=4))
        for indices in index_lists
    ]


def make_loop(cfg: ExperimentConfig, task: experiment.Task | None = None) -> federation.Federation:
    """``cfg``'s round loop at its first seed, as ``experiment.make_run``
    builds it for ``task``: by default ``make_task(seed)``'s data, in
    Dirichlet(1.0) shards of ``cfg``'s devices, for a 10-8-4 MLP."""
    seed = cfg.seeds[0]
    if task is None:
        train, test = make_task(seed)
        shards = dirichlet_partition(
            train.y, cfg.federation.n_devices, 1.0, rngmod.stream(seed, "partition")
        )
        task = experiment.Task(train, test, shards, LAYOUT)
    return experiment.make_run(cfg, seed, task)


@contextlib.contextmanager
def deadline(seconds=30):
    """Raise TimeoutError in the block after ``seconds``: a helper that never
    sees its pipe close makes closing its round loop wait forever."""
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def planned(plan):
    """Round loops whose ``engine.plan`` is ``plan(sizes)``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "plan", plan)
        yield


def split_stacks(min_devices=2, cpus=2):
    """Round loops whose plan splits each stack of at least ``2 *
    min_devices`` devices, into up to ``cpus`` parts, never forks the
    spare-CPU helper, and whose workers block."""
    return planned(lambda sizes: engine.Plan(
        tuple(max(1, min(cpus, n // min_devices)) for n in sizes), False, False
    ))


def sampled_rounds(on=True):
    """Round loops whose plan trains each stack in one process and finds a
    CPU to spare (``on``) or never does, whatever the rule finds.  On a
    spare CPU the loop forks its one helper, which draws every run's inputs
    and, in a ``Federation`` driven through ``run``, evaluates them.  Under
    pytest the rule finds no spare CPU on 2 CPUs: the
    ``faulthandler_timeout`` watchdog is a second thread."""
    return planned(lambda sizes: engine.Plan((1,) * len(sizes), on, False))


@contextlib.contextmanager
def spinning(on=True):
    """The plan in force, with split stacks' workers and the process
    polling for each other's messages before they block (``on``) or always
    blocking, whatever the rule finds.  Under pytest it finds no CPU to poll
    on 2 CPUs: the ``faulthandler_timeout`` watchdog is a second thread."""
    plan = engine.plan
    with planned(lambda sizes: plan(sizes)._replace(spin=on)):
        yield


def counted_evaluations(mp, inline: list) -> None:
    """Append the round to ``inline`` each time this process evaluates a
    round loop's global models, under the monkeypatch ``mp``: a loop's
    helper counts in its own fork-time copy, so ``inline`` holds the rounds
    that the helper did not evaluate."""
    accuracies = federation.Federation._accuracies

    def counted(fed, vectors):
        inline.append(fed.runs[0].round)
        return accuracies(fed, vectors)

    mp.setattr(federation.Federation, "_accuracies", counted)


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
