"""One workload in one process: timed passes with set-up samples, a traced pass.

``run.py`` starts this file in a fresh process for every measurement and
reads back the JSON it writes to ``--out``.  A pass is one ``run_all`` call
per job of the workload (see ``workloads.py``): set-up, the round loop, the
metrics CSVs and ``summary.json``, exactly what a user waits for.  Passes
repeat, closed loop, for about the time budget; set-up is sampled between
rounds at moments spread evenly over it.  With ``--trace 1`` the untraced
passes get half the budget and one traced pass follows, so the traced
counts are those of exactly one pass and repeat exactly.  Every timed
interval is reported at nominal host speed (see ``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import weakref
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from pins import load_pins  # noqa: E402

# setup_s is the median of SETUP_SAMPLES samples, each the mean of
# SETUP_GROUP consecutive set-ups, taken at moments spread evenly over the
# timed passes.  On a host whose speed changes every fraction of a second,
# set-ups timed in one burst all land in the same host phase.
SETUP_SAMPLES = 20
SETUP_GROUP = 3


class SetupSampler:
    """Times set-up between rounds, at moments spread evenly over a budget."""

    def __init__(self, jobs, make_run, budget: float, host: HostSpeed):
        self.jobs = jobs
        self.make_run = make_run  # the original, not RoundTimer's wrapper
        self.interval = budget / SETUP_SAMPLES
        self.host = host
        self.next_at: float | None = None
        self.samples: list[tuple[float, float]] = []  # (start, end) of each group
        self.spent = 0.0  # seconds spent sampling, taken out of the pass walls

    def start(self) -> None:
        self.next_at = time.perf_counter()

    def stop(self) -> None:
        """Take the samples still due (a run may end early), then stop."""
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        self.next_at = None

    def poll(self) -> None:
        if self.next_at is None or len(self.samples) >= SETUP_SAMPLES:
            return
        if time.perf_counter() >= self.next_at:
            self.sample()
            self.next_at += self.interval

    def sample(self) -> None:
        self.host.probe()
        start = time.perf_counter()
        for _ in range(SETUP_GROUP):
            setup_once(self.jobs, self.make_run)
        end = time.perf_counter()
        self.host.probe()
        self.samples.append((start, end))
        self.spent += end - start

    def nominal_s(self) -> list[float]:
        """Each sample's set-up seconds at nominal host speed."""
        return [self.host.nominal(a, b) / SETUP_GROUP for a, b in self.samples]


def round_ref(run):
    """A callable that returns ``run.run_round``.

    Weak for the bound method: a cycle through the run would keep each
    finished run alive until the next collection, adding to peak RSS.  The
    tracer's wrapper (traced pass only) is held as it is.
    """
    method = run.run_round
    if inspect.ismethod(method):
        return weakref.WeakMethod(method)
    return lambda: method


class RoundTimer:
    """Times every ``run_round`` of the runs that ``experiment.make_run`` builds.

    The host-speed kernel runs right before each round, outside its time.
    ``install`` wraps whatever ``make_run`` is current, so installed over
    the tracer it keeps the kernel outside the traced round spans.
    """

    def __init__(self, experiment, host: HostSpeed):
        self.experiment = experiment
        self.make_run = experiment.make_run  # the original
        self._inner = None  # what install wrapped, until restore
        self.host = host
        self.spans: list[tuple[float, float]] = []  # (start, end) of each round
        self.rounds: list = []  # (scheme, n_devices, RoundMetrics)
        self.scheme = ""
        self.sampler: SetupSampler | None = None

    def install(self) -> None:
        clock = time.perf_counter
        inner = self._inner = self.experiment.make_run

        def timed_make_run(cfg, *args, **kwargs):
            run = inner(cfg, *args, **kwargs)
            run_round = round_ref(run)
            tag = (self.scheme, cfg.federation.n_devices)

            def timed_round():
                self.host.probe()
                start = clock()
                metrics = run_round()()
                self.spans.append((start, clock()))
                self.rounds.append((*tag, metrics))
                if self.sampler is not None:
                    self.sampler.poll()
                return metrics

            run.run_round = timed_round
            return run

        self.experiment.make_run = timed_make_run

    def restore(self) -> None:
        if self._inner is not None:
            self.experiment.make_run, self._inner = self._inner, None

    def nominal_s(self, first: int = 0, last: int | None = None) -> list[float]:
        """Round seconds at nominal host speed, of rounds ``first:last``."""
        return [self.host.nominal(a, b) for a, b in self.spans[first:last]]


class Pass:
    """Runs and checks one pass over a workload's jobs."""

    def __init__(self, workload: str, jobs, pins: dict[str, str]):
        self.workload = workload
        self.jobs = jobs
        self.pins = pins
        self.attempted = self.failed = self.unverified = 0
        self.errors: list[str] = []
        self.hashes: dict[str, str] = {}

    def run(self, timer: RoundTimer, tracer=None) -> float:
        """One pass; returns its wall seconds."""
        from slimfl import experiment

        clock = time.perf_counter
        wall = 0.0
        for job in self.jobs:
            timer.scheme = job.scheme
            start = clock()
            try:
                if tracer is None:
                    cfg = workloads.build_config(job)
                    experiment.run_all(cfg)
                else:
                    cfg = tracer.span("config.parse", workloads.build_config, job)
                    tracer.span("experiment.run_all", experiment.run_all, cfg)
            except Exception:
                self.attempted += len(job.seeds)
                self.failed += len(job.seeds)
                self.errors.append(traceback.format_exc())
                continue
            finally:
                wall += clock() - start
            self.check(job, cfg.output_dir)
        return wall

    def check(self, job, output_dir: str) -> None:
        """Hash each seed's metrics CSV as written and compare it with its pin."""
        for seed in job.seeds:
            self.attempted += 1
            key = workloads.pin_key(self.workload, job.scheme, seed)
            try:
                got = self.hashes[key] = workloads.csv_sha256(output_dir, seed)
            except OSError as exc:
                self.failed += 1
                self.errors.append(f"{key}: {exc}")
                continue
            want = self.pins.get(key)
            if want is None:
                self.unverified += 1
            elif got != want:
                self.failed += 1
                self.errors.append(f"{key}: CSV sha256 {got} != pinned {want}")


def nominal_walls(host: HostSpeed, passes, round_s, measured_s) -> list[float]:
    """Each pass's wall at nominal host speed: its rounds one by one, the
    rest of the pass (set-up, CSVs, summary) at the pass's host speed."""
    walls = []
    for start, end, wall, first, last in passes:
        rest = wall - math.fsum(measured_s[first:last])
        walls.append(math.fsum(round_s[first:last]) + rest * host.factor(start, end))
    return walls


def setup_once(jobs, make_run) -> None:
    """parse_config + build_task + make_run over every federation of a pass."""
    from slimfl.experiment import build_task

    for job in jobs:
        cfg = workloads.build_config(job)
        for seed in job.seeds:
            make_run(cfg, seed, build_task(cfg, seed))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def round_percentile(round_s, rounds, q: float) -> float:
    """Mean over the workload's schemes of each scheme's round-time percentile.

    trend-poor runs as many slimfl rounds as (about twice as fast) vanilla
    rounds, so a median over the pooled rounds would fall in the gap
    between the two modes and track their extreme rounds.
    """
    by_scheme: dict[str, list[float]] = {}
    for seconds, (scheme, _, _) in zip(round_s, rounds):
        by_scheme.setdefault(scheme, []).append(seconds)
    return statistics.fmean(percentile(v, q) for v in by_scheme.values())


def decode_counts(rounds) -> dict[str, float]:
    """Messages decoded / sent, and device-rounds that decoded nothing."""
    sent = decoded = nothing = device_rounds = 0
    for scheme, n_devices, m in rounds:
        if scheme == "slimfl":
            sent += 2 * n_devices
            decoded += m.decoded_lh_only + 2 * m.decoded_both
        else:  # one message per device
            sent += n_devices
            decoded += n_devices - m.decoded_none
        nothing += m.decoded_none
        device_rounds += n_devices
    return {
        "channel.decode_ratio": decoded / sent,
        "federation.waste_ratio": nothing / device_rounds,
    }


# span name -> the fields reported for it
LAYER_FIELDS = {
    "slimnet.forward": ("calls", "ms"),
    "slimnet.backward": ("calls", "ms"),
    "training.superposed_step": ("calls", "ms", "self_ms"),
    "training.widthwise_step": ("calls",),
    "training.optimizer": ("calls", "ms"),
    "rng.stream": ("calls", "ms"),
    "rng.batch_choice": ("calls", "ms"),
    "channel.sample_fading": ("calls", "ms"),
    "federation.round": ("calls", "ms", "self_ms"),
    "federation.aggregate": ("calls", "ms"),
    "federation.evaluate": ("calls", "ms"),
    "config.parse": ("ms",),
    "experiment.build_task": ("ms",),
    "datasets.synth_dataset": ("ms",),
    "datasets.dirichlet_partition": ("ms",),
    "experiment.make_run": ("ms",),
    "metrics.write_csv": ("ms",),
    "experiment.summarize": ("ms",),
}


def layer_metrics(tracer, rounds, traced_rounds_per_s: float, rounds_per_s: float) -> dict:
    """Per-layer metrics from the spans and round results of one traced pass."""
    from tracer import LOSS_SPANS

    spans = tracer.summary()
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0}
    out = {}
    for name, fields in LAYER_FIELDS.items():
        for field in fields:
            out[f"{name}.{field}"] = spans.get(name, empty)[field]
    steps = [v for k, v in spans.items() if k.startswith("training.") and k.endswith("_step")]
    for field in ("calls", "ms", "self_ms"):
        out[f"training.step.{field}"] = sum(step[field] for step in steps)
    out["training.loss.ms"] = sum(spans.get(name, empty)["ms"] for name in LOSS_SPANS)
    out["slimnet.mflop_computed"] = sum(tracer.flops.values()) / 1e6
    out.update(decode_counts(rounds))
    out["trace.overhead_ratio"] = traced_rounds_per_s / rounds_per_s
    return out


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k, "") for k in workloads.THREAD_ENV},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            spans_path: Path | None = None) -> dict:
    from slimfl import experiment

    jobs = workloads.jobs(workload, seed, ROOT, work)
    check = Pass(workload, jobs, load_pins())

    host = HostSpeed()
    timer = RoundTimer(experiment, host)
    timer.install()
    try:
        passes = []  # (start, end, wall outside sampling and probes, first round, last round)
        budget = seconds / 2 if trace else seconds
        sampler = timer.sampler = SetupSampler(jobs, timer.make_run, budget, host)
        start = time.perf_counter()
        sampler.start()
        # start another pass only if it should end before half a pass past
        # the budget, so that runs last about the budget on average
        while True:
            spent, probed, first = sampler.spent, host.spent, len(timer.spans)
            pass_start = time.perf_counter()
            wall = check.run(timer) - (sampler.spent - spent) - (host.spent - probed)
            passes.append((pass_start, time.perf_counter(), wall, first, len(timer.spans)))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) / 2 > budget:
                break
        sampler.stop()
        n_rounds, rounds = len(timer.spans), list(timer.rounds)
        if not n_rounds:
            raise RuntimeError(f"no round completed:\n{check.errors[-1]}")
        round_s = timer.nominal_s()
        measured_s = [b - a for a, b in timer.spans]
        end_to_end = {
            "rounds_per_s": n_rounds / math.fsum(round_s),
            "round_ms_p50": round_percentile(round_s, rounds, 50) * 1e3,
            "round_ms_p98": round_percentile(round_s, rounds, 98) * 1e3,
            "wall_s": statistics.median(nominal_walls(host, passes, round_s, measured_s)),
            "setup_s": statistics.median(sampler.nominal_s()),
        }
        measured = {
            "rounds_per_s": n_rounds / math.fsum(measured_s),
            "wall_s": statistics.median(p[2] for p in passes),
            "setup_s": statistics.median(
                (b - a) / SETUP_GROUP for a, b in sampler.samples),
        }

        layers = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            timer.restore()
            tracer.install()
            timer.install()
            try:
                check.run(timer, tracer)
            finally:
                timer.restore()
                tracer.restore()
            traced_s = timer.nominal_s(n_rounds)
            layers = layer_metrics(
                tracer, timer.rounds[n_rounds:], len(traced_s) / math.fsum(traced_s),
                end_to_end["rounds_per_s"],
            )
            if spans_path is not None:
                tracer.save(spans_path)
    finally:
        timer.restore()

    return {
        "workload": workload,
        "seed": seed,
        "master_seeds": list(workloads.master_seeds(workload, seed)),
        "passes": len(passes),
        "rounds_timed": n_rounds,
        "setup_samples": len(sampler.samples),
        "host_slowdown": host.slowdown(),
        "measured": measured,
        "attempted": check.attempted,
        "failed": check.failed,
        "unverified": check.unverified,
        "errors": check.errors,
        "hashes": check.hashes,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "environment": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one workload measurement (internal)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import slimfl

    if Path(slimfl.__file__).resolve().parent != ROOT / "src" / "slimfl":
        raise SystemExit(f"slimfl imported from {slimfl.__file__}, not from this checkout")
    work = args.out.parent / f"work-{args.out.stem}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work,
                         args.spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
