"""Self-test of the benchmark: ``python3 -m pytest -q bench/test_bench.py``.

Takes a few minutes: it runs the reference and trend-poor workloads traced,
twice each, in child processes as the benchmark does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracermod  # noqa: E402
from pins import load_pins  # noqa: E402

EXACT_SUFFIXES = (".calls",)
EXACT_NAMES = ("slimnet.mflop_computed", "channel.decode_ratio", "federation.waste_ratio")

TINY_INI = """
[experiment]
seeds = 4,5
rounds = 3
output_dir = {out}

[dataset]
per_class = 40
test_per_class = 10
dim = 16
alpha = 0.5

[model]
hidden = 8

[federation]
devices = 4
scheme = {scheme}
"""


def traced_targets():
    """Every name the tracer replaces, looked up where callers look it up."""
    import importlib

    from slimfl import experiment, rng, training

    targets = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in tracermod.MODULE_TARGETS
    }
    targets["rng.stream"] = rng.stream
    targets["LocalOptimizer.apply"] = training.LocalOptimizer.apply
    targets["experiment.make_run"] = experiment.make_run
    targets.update({("STEP_FUNCTIONS", k): v for k, v in training.STEP_FUNCTIONS.items()})
    return targets


@pytest.mark.parametrize("scheme", ["slimfl", "vanilla-1.0x", "vanilla-1.5x"])
def test_tracer_restores_names_and_keeps_outputs(tmp_path, scheme):
    from slimfl.config import parse_config
    from slimfl.experiment import run_all

    before = traced_targets()
    plain = run_all(parse_config(TINY_INI.format(out=tmp_path / "plain", scheme=scheme)))
    tracer = tracermod.Tracer()
    tracer.install()
    try:
        assert traced_targets() != before
        traced = run_all(parse_config(TINY_INI.format(out=tmp_path / "traced", scheme=scheme)))
    finally:
        tracer.restore()
    after = traced_targets()
    assert after.keys() == before.keys()
    for key in before:
        assert after[key] is before[key], key
    assert [r["metrics_sha256"] for r in traced["runs"]] == [
        r["metrics_sha256"] for r in plain["runs"]
    ]
    summary = tracer.summary()
    assert summary["federation.round"]["calls"] == 6
    assert summary["slimnet.forward"]["calls"] > 0


def test_self_time_is_duration_minus_children():
    t = tracermod.Tracer()
    inner = t.wrap("inner", lambda: sum(range(1000)))
    outer = t.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    outer()
    summary = t.summary()
    assert summary["outer"]["calls"] == 2 and summary["inner"]["calls"] == 6
    duration, self_time = t.self_times()
    name_id, *_ = t.arrays()
    outer_rows = name_id == t.names.index("outer")
    inner_ms = summary["inner"]["ms"]
    assert summary["outer"]["self_ms"] == pytest.approx(summary["outer"]["ms"] - inner_ms)
    assert (self_time[outer_rows] >= 0).all()
    assert summary["inner"]["self_ms"] == pytest.approx(inner_ms)
    assert duration[outer_rows].sum() * 1e3 == pytest.approx(summary["outer"]["ms"])


def test_host_speed_uses_the_nearest_kernel_times():
    from hostspeed import NOMINAL_KERNEL_S, HostSpeed

    host = HostSpeed()
    host.at = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    host.kernel_s = [NOMINAL_KERNEL_S * k for k in (1, 2, 3, 4, 5, 6)]
    # a round between the kernel runs ending at 3 and 4: the runs at 2, 3, 4, 5
    assert host.nominal(3.1, 3.9) == pytest.approx(0.8 / 3.5)
    # at either end the window is clamped to the first or last four runs
    assert host.nominal(0.2, 0.6) == pytest.approx(0.4 / 2.5)
    assert host.nominal(6.1, 6.5) == pytest.approx(0.4 / 4.5)
    assert host.slowdown() == pytest.approx(3.5)
    host.probe()
    assert len(host.at) == len(host.kernel_s) == 7 and host.kernel_s[-1] > 0


@pytest.fixture(scope="module", params=["reference", "trend-poor"])
def traced_pair(request):
    """Two traced measurements of one workload, each in a fresh process."""
    workload = request.param
    results = [run.run_child(workload, 0, 1.0, trace=True)[0] for _ in range(2)]
    spans = np.load(run.RESULTS / f"{workload}-seed0-trace1.spans.npz")
    return workload, results, spans


def test_traced_and_untraced_passes_match_the_pins(traced_pair):
    workload, results, _ = traced_pair
    pins = load_pins()
    for result in results:
        # one or more untraced passes and one traced pass, each checked
        assert result["failed"] == 0, result["errors"]
        assert result["unverified"] == 0
        assert result["attempted"] == len(result["hashes"]) * (result["passes"] + 1)
        for key, digest in result["hashes"].items():
            assert key.startswith(workload + "/")
            assert pins[key] == digest


def test_exact_counts_repeat(traced_pair):
    _, (first, second), _ = traced_pair
    exact = [
        name for name in first["per_layer"]
        if name.endswith(EXACT_SUFFIXES) or name in EXACT_NAMES
    ]
    assert len(exact) >= 15
    for name in exact:
        assert first["per_layer"][name] == second["per_layer"][name], name
    assert first["per_layer"]["training.superposed_step.calls"] > 0


def test_children_fit_inside_their_parents(traced_pair):
    _, _, spans = traced_pair
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    assert (end >= start).all()
    child = parent >= 0
    assert (start[child] >= start[parent[child]]).all()
    assert (end[child] <= end[parent[child]]).all()
    duration = end - start
    children = np.zeros_like(duration)
    np.add.at(children, parent[child], duration[child])
    # children's time (hence their self time) never exceeds the parent span
    assert (children <= duration + 1e-12).all()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "reference", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
