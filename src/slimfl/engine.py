"""Where a round loop's work runs: one CPU plan per loop, and the forked
helper processes that carry it out.

``plan`` decides, once per round loop and before anything forks, how many
contiguous parts each run's device stack trains in, whether a run has a
CPU to spare, whether the loop forks its one evaluator, and whether split
stacks' workers spin.  A one-part run's sampler draws its inputs one round
ahead on its spare CPU, and, in a loop that ``federation.Federation.run``
drives, the evaluator beside the first sampler evaluates every run's
global model one round behind; each counts against the runs after it, so
on 2 CPUs the first run of a ``vanilla-1.5x`` pair takes the spare CPU and
its sampler and the evaluator leave none to the second.  A ``Helper`` is
one forked process (a split stack's worker, a run's sampler or a loop's
evaluator) that runs one job per request and answers None or the job's
exception; a helper that fails or dies raises ``HelperError`` in the
process, naming the round, the job, the helper's role and pid, and how it
ended.  A helper forked to ``spin`` and the process poll for each other's
next message for up to ``SPIN_S`` before they block.  A ``Ring`` is a
spare-CPU helper (the sampler, the evaluator) whose rounds take two slots
of shared arrays in turn, each slot a ``record``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import mmap
import os
import signal
import sys
import time
import weakref
from collections import deque
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

# Devices per part below which a stack trains in one process: handing a
# part to a worker costs more than the part's steps save.  Two parts of a
# fanout-style stack (batch 8) trained at x0.76 the one-process speed at 20
# devices and x1.20 at 22, x1.3-1.7 from 24 to 100 (2 CPUs).
MIN_DEVICES_PER_PART = 12

# How long a spinning helper polls for its next request, and the process for
# its answer, before blocking in recv: about the median wait.  In a
# fanout-shaped run (K=100 in two parts, 2 vCPUs under KVM) a worker waited
# 0.37-0.42 ms after its answer for the next round's request (p90 1.1 ms,
# the evaluated rounds').  A message reached a polling reader 22-27 us after
# its send (median; p98 47-68 us) and a blocked one 42-54 us (p98 0.2-1.6
# ms).  On the benchmark's fanout a 1 ms budget ran x1.074 the blocking
# parent's rounds/s against x1.098, and a 5 ms one, which polled through
# the host-speed probe between rounds, lost its gain to the normalisation.
SPIN_S = 0.0005


def available_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


class Plan(NamedTuple):
    """A round loop's use of the CPUs, taken once at its first round."""

    runs: tuple[tuple[int, bool], ...]  # each run's (parts, sampled)
    evaluates: bool  # whether the loop forks its one evaluator
    spin: bool  # whether split stacks' workers and the process poll


def plan(sizes: list[int], evaluates: bool) -> Plan:
    """How a round loop over runs of ``sizes`` devices uses the CPUs, taken
    before it forks anything; ``evaluates`` if it would evaluate ahead on a
    spare CPU.

    A run's stack trains in contiguous parts, one per CPU with at least
    ``MIN_DEVICES_PER_PART`` devices each.  A one-part run has a CPU to
    spare for a sampler that draws its inputs ahead when the CPUs outnumber
    the busy threads: this process's threads, its live helpers, and the
    helpers the runs before it fork.  The evaluator is forked beside the
    first sampler, when the loop evaluates, and counts against the runs
    after it too.  So a BLAS thread pool leaves no CPU to spare, nor do the
    sampler and the evaluator of the first run of a ``vanilla-1.5x`` pair on
    2 CPUs.  Split stacks' workers spin when every busy thread has a CPU of
    its own once all are forked: a ``vanilla-1.5x`` pair's two workers on 2
    CPUs leave no CPU to poll on, nor does a second thread.  Linux only:
    elsewhere one part, nothing forked beside it, no spinning."""
    if not sys.platform.startswith("linux"):
        return Plan(((1, False),) * len(sizes), False, False)
    cpus = available_cpus()
    busy = len(os.listdir("/proc/self/task")) + len(_PROCESS_ENDS)
    runs = []
    for n_devices in sizes:
        parts = max(1, min(cpus, n_devices // MIN_DEVICES_PER_PART))
        sampled = parts == 1 and cpus > busy
        # the evaluator is forked beside the first sampler
        first = sampled and not any(s for _, s in runs)
        busy += parts - 1 + sampled + (evaluates and first)
        runs.append((parts, sampled))
    return Plan(tuple(runs), evaluates and any(s for _, s in runs), busy <= cpus)


def shared(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An array in anonymous shared memory: a process forked after this call
    writes into the same pages."""
    count, itemsize = math.prod(shape), np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, max(1, itemsize * count)), dtype, count).reshape(shape)


def record(make, **arrays) -> SimpleNamespace:
    """One array per ``name=(shape, dtype)``, each ``make(shape, dtype)``:
    ``np.empty`` for this process alone, ``shared`` for its helpers too."""
    return SimpleNamespace(**{name: make(*spec) for name, spec in arrays.items()})


# the process-side pipe end of every live helper, closed in each new helper:
# a helper holding another's end would keep it from seeing its pipe close
_PROCESS_ENDS: set = set()


class HelperError(RuntimeError):
    """A helper's job failed, or the helper died or was closed with its run."""


class Helper:
    """A forked process that runs ``job(round_)`` for each round the process
    asks of it, in order, and answers each with None or the job's exception,
    until its pipe closes.

    ``role`` ("worker", "sampler", "evaluator") and ``task`` (what the job
    does) name it in errors.  A ``background`` helper runs under
    ``SCHED_BATCH``: its wake-up waits for a CPU rather than preempt the
    process.  A helper forked to ``spin`` polls for its next request after
    each answer, and the process for each answer, for up to ``SPIN_S``
    before blocking, so neither pays a sleeping CPU's wake-up.  ``close``
    closes the pipe, so the helper leaves its loop, and reaps it; it also
    runs when the helper is collected.
    """

    def __init__(self, role: str, task: str, job, background: bool = False, spin: bool = False):
        # imported here: 1.5 MB and 15 ms in every process otherwise
        from multiprocessing.connection import Pipe

        self.role, self.task, self.spin = role, task, spin
        self.end, helper_end = Pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # the process decides
                if background:
                    with contextlib.suppress(OSError):
                        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
                self.end.close()
                for other in _PROCESS_ENDS:
                    other.close()
                self._serve(helper_end, job, spin)
                status = 0
            finally:
                os._exit(status)
        helper_end.close()
        _PROCESS_ENDS.add(self.end)
        self.close = weakref.finalize(self, self._stop, self.pid, self.end, os.getpid())

    def ask(self, round_: int) -> None:
        """Send the helper round ``round_``'s request."""
        try:
            self.end.send(round_)
        except OSError:
            raise self._lost(round_) from None

    def answer(self, round_: int) -> HelperError | None:
        """The helper's answer to its oldest request: None, or the error to
        raise for round ``round_``."""
        try:
            if self.spin:
                _poll(self.end)
            reply = self.end.recv()
        except (EOFError, OSError):
            return self._lost(round_)
        if reply is None:
            return None
        exc, trace = reply
        error = self._error(round_, f"\n{trace}")
        error.__cause__ = exc
        return error

    def _lost(self, round_: int) -> HelperError:
        """The error of a helper whose pipe is closed or broken: it was
        closed with its run, or it died and is reaped here."""
        if not self.close.alive:
            return self._error(round_, " the run is closed")
        code = os.waitstatus_to_exitcode(self.close())
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        return self._error(round_, f" it {how}")

    def _error(self, round_: int, detail: str) -> HelperError:
        return HelperError(
            f"round {round_}: {self.task} failed in {self.role} process {self.pid}:{detail}"
        )

    @staticmethod
    def _serve(end, job, spin: bool) -> None:
        """A helper's loop: run the job of each request and answer it, until
        the process closes its end; after each answer a ``spin`` helper
        polls for the next request before blocking."""
        while True:
            try:
                round_ = end.recv()
            except (EOFError, OSError):
                return
            try:
                job(round_)
                reply = None
            except Exception as exc:
                import traceback  # a helper's only use: 0.25 MB in every process otherwise

                reply = (exc, traceback.format_exc())
            try:
                end.send(reply)
            except OSError:
                return
            except Exception:  # an exception that does not pickle
                end.send((RuntimeError(repr(reply[0])), reply[1]))
            if spin:
                _poll(end)

    @staticmethod
    def _stop(pid: int, end, owner: int) -> int:
        """Close the process's end of a helper's pipe and wait for the
        helper; its wait status.  Only in the process that forked it
        (``owner``)."""
        if os.getpid() != owner:  # a helper's copy of another helper
            return 0
        _PROCESS_ENDS.discard(end)
        end.close()
        with contextlib.suppress(ChildProcessError):
            return os.waitpid(pid, 0)[1]
        return 0


def _poll(end) -> None:
    """Return once ``end`` has a message to read or ``SPIN_S`` has passed,
    yielding the CPU between polls; a closed or broken pipe reads as one."""
    deadline = time.perf_counter() + SPIN_S
    while not end.poll(0) and time.perf_counter() < deadline:
        os.sched_yield()


class Ring(Helper):
    """A background helper whose rounds take two slots of shared arrays in
    turn: the k-th round asked of it uses ``slots[k % 2]``.

    Each slot is a ``record`` of ``shared`` arrays, one per
    ``name=(shape, dtype)``.
    ``ask`` writes a round's inputs into its slot before the request goes
    out, and the helper runs ``job(slot, round_)``, which writes the round's
    outputs there.  ``take`` waits for the oldest round asked.  A round's
    slot is the caller's again once taken, and a third round is asked only
    after a take: at most two are pending.
    """

    def __init__(self, role: str, task: str, job, **arrays):
        self.slots = [record(shared, **arrays) for _ in range(2)]
        self.pending: deque = deque()  # (round, slot) asked and not yet taken
        # the next round's slot; the helper turns its fork-time copy in step
        self._turn = itertools.cycle(self.slots)
        super().__init__(
            role, task, lambda round_: job(next(self._turn), round_), background=True
        )

    def ask(self, round_: int, **inputs) -> None:
        """Write round ``round_``'s inputs into the next slot and ask the
        helper for the round."""
        slot = next(self._turn)
        for name, value in inputs.items():
            getattr(slot, name)[...] = value
        super().ask(round_)
        self.pending.append((round_, slot))

    def take(self) -> tuple[int, SimpleNamespace]:
        """The oldest round asked and its slot, once the helper has run it.
        A round that fails raises and stays pending: once the ring is
        closed, every later ``take`` names that round."""
        round_, slot = self.pending[0]
        error = self.answer(round_)
        if error is not None:
            raise error
        self.pending.popleft()
        return round_, slot
