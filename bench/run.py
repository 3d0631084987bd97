"""slimfl benchmark: end-to-end and per-layer metrics of three federation workloads.

    python3 bench/run.py --workload reference --seed 0 --seconds 30 --trace 0
    python3 bench/run.py                     # every workload, end to end and traced

Run from the repository root.  Each measurement runs in a fresh child
process (``measure.py``) whose own peak RSS is read with ``os.wait4``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (federations whose run raised or whose metrics
CSV differs from its pin) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

RESULTS = BENCH / "results"


def child_timeout(seconds: float) -> float:
    """Longest a measurement child may take: its passes run for about
    ``seconds`` (a pass may overrun by half), then set-up and a traced pass."""
    return 3 * seconds + 80

# Printed with the end-to-end metrics but not declared in BENCHMARK.json:
# fail_ratio is 0 on a correct program, and a declared metric is never 0.
REPORTED_ONLY = {"fail_ratio": "ratio"}


def declared() -> dict:
    """BENCHMARK.json: run length, workloads and every metric with its unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, float]:
    """Measure in a fresh process; returns its result and its own peak RSS in MB."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    out = RESULTS / f"{stem}.child.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "measure.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        "--out", str(out),
    ]
    if trace:
        cmd += ["--spans", str(RESULTS / f"{stem}.spans.npz")]
    env = dict(os.environ, **workloads.THREAD_ENV)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    timeout = child_timeout(seconds)
    deadline = time.monotonic() + timeout
    pid = 0
    try:
        # wait4 on this pid reports the child's own peak RSS; RUSAGE_CHILDREN
        # would report the largest of all children so far.
        while not pid:
            if time.monotonic() > deadline:
                raise RuntimeError(f"{stem}: child exceeded {timeout:.0f} s")
            time.sleep(0.05)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:  # timed out or interrupted: stop the child and reap it
            proc.send_signal(signal.SIGKILL)
            _, status, _ = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{stem}: child exited with {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    result, peak_rss_mb = run_child(workload, seed, seconds, trace)
    attempted, failed = result["attempted"], result["failed"]
    if trace:
        metrics = result["per_layer"]
        result["reported_only"] = {}
    else:
        metrics = dict(result["end_to_end"])
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["pass_ratio"] = (attempted - failed) / attempted
        metrics["fail_ratio"] = failed / attempted
        result["reported_only"] = {
            name: {"value": metrics[name], "unit": unit} for name, unit in REPORTED_ONLY.items()
        }
    record = {
        "correct": failed == 0 and result["unverified"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared()["per_layer" if trace else "end_to_end"]
        },
    }
    result["environment"].update(
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        git_commit=git_commit(),
    )
    result.update(peak_rss_mb=peak_rss_mb, seconds=seconds, trace=trace, record=record)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict) -> None:
    """Human-readable lines: environment, sample counts, every metric."""
    record = result["record"]
    print(f"# {result['workload']} seed {result['seed']} (master seeds "
          f"{result['master_seeds']}), {result['passes']} passes, "
          f"{result['rounds_timed']} rounds timed, {result['setup_samples']} set-up samples")
    print(f"# environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"# attempted {record['attempted']} failed {record['failed']} unverified "
          f"{result['unverified']}")
    measured = ", ".join(f"{k} {v:.6g}" for k, v in result["measured"].items())
    print(f"# host ran {result['host_slowdown']:.3f}x slower than nominal; "
          f"as measured, before normalising: {measured}")
    for error in result["errors"]:
        print(f"# error: {error.strip().splitlines()[-1]}")
    for name, m in {**record["metrics"], **result["reported_only"]}.items():
        print(f"{result['workload']:>10}  {name:<34} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    # turn SIGTERM into SystemExit so that the child is stopped and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/slimfl/__init__.py", "configs/reference.ini")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run the benchmark "
              "from a slimfl checkout", file=sys.stderr)
        return 2

    if args.seconds is None:
        args.seconds = declared()["run_seconds"]
    if args.workload is None:  # every workload, untraced then traced
        for workload in workloads.WORKLOADS:
            for trace in (False, True):
                report(measure(workload, args.seed, args.seconds, trace))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    print(json.dumps(result["record"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
