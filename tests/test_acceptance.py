"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 7 exercises
full federated trainings and dominates the runtime (a few minutes); all
tolerances are pinned here, not configurable.

The qualitative-trend criterion runs on the synthetic Gaussian-blob task
(same scale as the intended image benchmark: 10k train samples, 10
classes, K=10, 300 rounds, 5 seeds).  The standard image corpora are not
redistributable inside this build environment; the data pipeline loads
them via the IDX config path when present.
"""

import contextlib
import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest
from conftest import split_stacks
from scipy import stats

from slimfl import experiment
from slimfl import rng as rngmod
from slimfl.analysis import (
    MaskedQuadraticSim,
    PowerObjective,
    optimality_gap_bound,
    optimize_power_split,
)
from slimfl.channel import (
    config_for_decode_probs,
    decode_probabilities,
    decode_thresholds,
    rate_for_sinr_threshold,
    ChannelConfig,
)
from slimfl.config import parse_config
from slimfl.datasets import dirichlet_partition
from slimfl.experiment import run_experiment
from slimfl.federation import aggregate
from slimfl.metrics import detect_convergence, write_metrics_csv
from slimfl.slimnet import (
    Layout,
    build_mask,
    complement_bits,
    forward,
    init_params,
)
from slimfl.training import (
    LocalOptimizer,
    TrainConfig,
    sandwich_step,
    superposed_step,
    widthwise_step,
)

RNG = np.random.default_rng


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


# ------------------------------------------------------------------ 1 ----


def test_criterion_1_decode_probability_equivalence():
    """Closed-form decode probabilities match Monte-Carlo within 3 SE."""
    start = time.time()
    rng = RNG(101)
    n = 10**6
    checked = 0
    while checked < 20:
        cfg = ChannelConfig(
            noise_power_w=10 ** rng.uniform(-9, -4),
            rate_bps=rate_for_sinr_threshold(rng.uniform(0.1, 1.5), 75e6),
            power_split=rng.uniform(0.55, 0.95),
            total_power_w=rng.uniform(0.05, 0.5),
        )
        probs = decode_probabilities(cfg)
        if not (0.02 < probs[1] <= probs[0] < 0.995):
            continue
        checked += 1
        draws = rng.exponential(1.0, size=n)
        for p, tau in zip(probs, decode_thresholds(cfg)):
            freq = (draws >= tau).mean()
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 3 * se + 1e-12, f"config {checked}: {freq} vs {p}"
    elapsed = time.time() - start
    assert elapsed < 30
    report(1, f"20 configs, both messages within 3 SE of 1e6-draw frequencies ({elapsed:.1f}s)")


# ------------------------------------------------------------------ 2 ----


def test_criterion_2_power_split_reproduction():
    """Exact-objective minimum lands on the published 0.662 split and powers."""
    total_power = 10 ** (23 / 10) / 1000
    obj = PowerObjective(
        effective_noise=10 ** (-169 / 10) * 75e6 * 100**2.5,
        sinr_threshold=0.667,
        total_power_w=total_power,
    )
    result = optimize_power_split(obj)
    assert abs(result.lam_numeric - 0.662) < 0.005
    p1_mw = result.lam_numeric * total_power * 1000
    p2_mw = (1 - result.lam_numeric) * total_power * 1000
    assert abs(p1_mw - 132.1) < 0.1
    assert abs(p2_mw - 67.4) < 0.1
    assert result.lam_closed_alt > 1.0  # the rearranged form leaves the valid range
    report(
        2,
        f"split {result.lam_numeric:.4f} (target 0.662), powers "
        f"{p1_mw:.1f}/{p2_mw:.1f} mW, alternate form {result.lam_closed_alt:.3f} > 1",
    )


# ------------------------------------------------------------------ 3 ----


def numeric_gradient(fn, values, step=1e-5):
    g = np.zeros_like(values)
    for j in range(len(values)):
        up, down = values.copy(), values.copy()
        up[j] += step
        down[j] -= step
        g[j] = (fn(up) - fn(down)) / (2 * step)
    return g


def test_criterion_3_gradient_correctness_all_algorithms():
    """Every update rule's accumulated gradient matches central differences."""
    from slimfl.training import cross_entropy, ipkd_loss
    from slimfl.slimnet import masks_for

    layout = Layout.mlp(8, (6, 5), 3)
    assert layout.size <= 200 and len(layout.layers) == 3
    cfg = TrainConfig(optimizer="sgd")

    for seed in range(10):
        rng = RNG(300 + seed)
        # generic parameter point: keep preactivations off the clamp kinks
        values = init_params(layout, rng).values + rng.normal(0, 0.05, layout.size)
        params = init_params(layout, rng).with_values(values)
        x = rng.normal(size=(6, 8))
        y = rng.integers(0, 3, size=6)
        masks = masks_for(layout, cfg.width_ratios)
        teacher = forward(params, masks[-1], x)

        losses = {
            "superposed": lambda v: 0.5
            * cross_entropy(forward(params.with_values(v), masks[-1], x), y)
            + 0.5 * ipkd_loss(forward(params.with_values(v), masks[0], x), teacher),
            "widthwise": lambda v: sum(
                cross_entropy(forward(params.with_values(v), m, x), y) for m in masks
            ),
            "sandwich": lambda v: cross_entropy(
                forward(params.with_values(v), masks[-1], x), y
            )
            + ipkd_loss(forward(params.with_values(v), masks[0], x), teacher),
        }
        steps = {
            "superposed": superposed_step,
            "widthwise": widthwise_step,
            "sandwich": sandwich_step,
        }
        for name, step in steps.items():
            result = step(params, x, y, cfg, LocalOptimizer(cfg, layout.size))
            numeric = numeric_gradient(losses[name], params.values.copy())
            np.testing.assert_allclose(
                result.gradient, numeric, rtol=1e-4, atol=1e-7,
                err_msg=f"{name} seed {seed}",
            )
    report(3, "3 update rules x 10 seeds match finite differences at rtol 1e-4")


# ------------------------------------------------------------------ 4 ----


def test_criterion_4_mask_algebra_suite():
    """Partition, nestedness, sub-network equivalence, gradient confinement."""
    from slimfl.slimnet import backward

    layout = Layout.mlp(12, (10, 8), 4)
    rng = RNG(400)
    params = init_params(layout, rng)
    half = build_mask(layout, 0.5)
    full = build_mask(layout, 1.0)
    rest = complement_bits(half)

    # partition: exact reassembly, no overlap
    theta = rng.normal(size=layout.size)
    np.testing.assert_array_equal(theta * half.bits + theta * rest, theta)
    assert not (half.bits & rest).any()
    assert full.bits.all()

    # nestedness
    for r_small, r_big in ((0.25, 0.5), (0.5, 0.75), (0.75, 1.0)):
        small = build_mask(layout, r_small).bits
        big = build_mask(layout, r_big).bits
        assert (small & big == small).all()

    # sub-network forward equivalence at 1e-12
    from test_slimnet import extract_subnet, subnet_forward

    x = rng.normal(size=(9, 12))
    for ratio in (0.25, 0.5, 0.75):
        masked = forward(params, build_mask(layout, ratio), x)
        oracle = subnet_forward(*extract_subnet(params, ratio), x)
        assert np.abs(masked[:, : oracle.shape[1]] - oracle).max() <= 1e-12

    # gradient never leaks outside the mask
    for ratio in (0.25, 0.5, 0.75):
        mask = build_mask(layout, ratio)
        g = backward(params, mask, x, rng.normal(size=(9, 4)))
        np.testing.assert_array_equal(g[~mask.bits], 0.0)
    report(4, "partition/nestedness exact, forward equiv <= 1e-12, gradients confined")


# ------------------------------------------------------------------ 5 ----


def test_criterion_5_gap_bound_on_synthetic_quadratic():
    """Mean optimality gap over 50 runs never crosses the bound, t in [1, 500]."""
    start = time.time()
    rng = RNG(42)
    sim = MaskedQuadraticSim(
        targets=rng.normal(size=(10, 4)),
        curvature=np.array([1.0, 1.2, 2.0, 2.4]),
        noise_scales=rng.uniform(0.3, 0.8, size=10),
        first_segment=np.array([True, True, False, False]),
        st_weights=(0.5, 0.5),
        decode_probs=(0.8, 0.6),
    )
    theta0 = sim.optimum + 2.0
    params = sim.convergence_params(theta0)
    gaps = sim.run(theta0, rounds=500, n_runs=50, rng=RNG(7)).mean(axis=0)
    bounds = np.array([optimality_gap_bound(params, t) for t in range(1, 501)])
    assert (gaps <= bounds).all()
    elapsed = time.time() - start
    assert elapsed < 120
    report(
        5,
        f"50-run mean gap under bound for all t<=500 "
        f"(min headroom x{float((bounds / gaps).min()):.2f}, {elapsed:.1f}s)",
    )


# ------------------------------------------------------------------ 6 ----


def test_criterion_6_aggregation_matches_brute_force():
    """500 random decode-set configurations reproduce a per-coordinate oracle."""
    rng = RNG(600)
    layout = Layout.mlp(5, (4,), 3)
    lh_bits = build_mask(layout, 0.5).bits
    size = layout.size

    for trial in range(500):
        k = int(rng.integers(1, 6))
        devices = [rng.normal(size=size) for _ in range(k)]
        previous = rng.normal(size=size)
        membership = rng.integers(0, 3, size=k)  # 0 none, 1 first-only, 2 both
        lh_only = {i for i in range(k) if membership[i] == 1}
        full = {i for i in range(k) if membership[i] == 2}
        weighting = "expected" if trial % 3 == 0 else "empirical"
        expected_counts = (
            (k * rng.uniform(0.3, 1.0), k * rng.uniform(0.1, 0.9))
            if weighting == "expected"
            else None
        )
        got = aggregate(previous, np.stack(devices), membership, lh_bits, expected_counts)

        contributors = sorted(lh_only | full)
        full_sorted = sorted(full)
        if weighting == "expected" and contributors:
            div_lh, div_rh = expected_counts
        else:
            div_lh, div_rh = len(contributors), len(full_sorted)
        oracle = np.empty(size)
        for j in range(size):
            if not contributors:
                oracle[j] = previous[j]
            elif lh_bits[j]:
                oracle[j] = sum(devices[i][j] for i in contributors) / div_lh
            elif full_sorted:
                oracle[j] = sum(devices[i][j] for i in full_sorted) / div_rh
            else:
                oracle[j] = previous[j]
        np.testing.assert_array_equal(got, oracle, err_msg=f"trial {trial}")
    report(6, "500 random decode sets (K<=5, both weightings) match exactly")


# ------------------------------------------------------------------ 7 ----

BASE_TREND_CONFIG = """
[experiment]
seeds = 1
rounds = 300
output_dir = /tmp/slimfl-acceptance

[dataset]
kind = synth
classes = 10
per_class = 1000
test_per_class = 100
dim = 64
spread = {spread}
alpha = 0.1

[model]
hidden = {hidden}

[training]
lr = {lr}
st_weights = {weights}

[federation]
devices = 10
local_iters = {iters}
scheme = {scheme}
"""


def trend_config(scheme, weights="0.5,0.5", hidden=32, lr=0.01, iters=1, spread=0.28):
    text = BASE_TREND_CONFIG.format(
        scheme=scheme, weights=weights, hidden=hidden, lr=lr, iters=iters, spread=spread
    )
    poor = config_for_decode_probs(0.7, 0.5)
    return dataclasses.replace(parse_config(text), channel=poor)


def test_criterion_7_qualitative_trends():
    """Width ordering, stability under a poor channel, and weight tuning."""
    start = time.time()
    seeds = (1, 2, 3, 4, 5)
    burn_in = 50

    # (a) + (c) runs: equal weights, then skewed weights
    equal_runs, skewed_runs = [], []
    for seed in seeds:
        metrics, _ = run_experiment(trend_config("slimfl"), seed)
        equal_runs.append(metrics)
        metrics, _ = run_experiment(trend_config("slimfl", weights="0.3,0.7"), seed)
        skewed_runs.append(metrics)

    # (a) full-width accuracy at least matches half-width after burn-in
    hits = total = 0
    for metrics in equal_runs:
        half = np.array([m.acc_half for m in metrics])[burn_in:]
        full = np.array([m.acc_full for m in metrics])[burn_in:]
        hits += int((full >= half).sum())
        total += len(full)
    ordering = hits / total
    assert ordering >= 0.90

    # (c) equal weights reach the convergence criterion no later than (0.3, 0.7);
    # the model serves both widths, so convergence tracks their mean accuracy
    def joint_convergence(metrics):
        trace = [(m.acc_half + m.acc_full) / 2 for m in metrics]
        round_idx = detect_convergence(trace)
        return math.inf if round_idx is None else round_idx

    wins = sum(
        joint_convergence(eq) <= joint_convergence(sk)
        for eq, sk in zip(equal_runs, skewed_runs)
    )
    assert wins >= 4

    # (b) poor-channel stability: harder task with several local steps per
    # round, where all-or-nothing subset averaging shows its variance
    slim_stds, van_stds = [], []
    for seed in seeds:
        metrics, _ = run_experiment(
            trend_config("slimfl", hidden=16, lr=0.1, iters=5, spread=0.4), seed
        )
        slim_stds.append(np.std([m.acc_full for m in metrics][-100:]))
        metrics, _ = run_experiment(
            trend_config("vanilla-1.0x", hidden=16, lr=0.1, iters=5, spread=0.4), seed
        )
        van_stds.append(np.std([m.acc_full for m in metrics][-100:]))
    assert np.mean(slim_stds) < np.mean(van_stds)

    elapsed = time.time() - start
    assert elapsed < 1800
    report(
        7,
        f"(a) ordering {ordering:.3f}>=0.90, (b) std {np.mean(slim_stds):.4f} < "
        f"{np.mean(van_stds):.4f}, (c) weight tuning wins {wins}/5 ({elapsed:.0f}s)",
    )


# ------------------------------------------------------------------ 8 ----


def test_criterion_8_energy_accounting():
    """Per-round power and decoded-bit counters reproduce the cost constants."""
    text = BASE_TREND_CONFIG.format(
        scheme="slimfl", weights="0.5,0.5", hidden=8, lr=0.01, iters=1, spread=0.4
    ).replace("rounds = 300", "rounds = 3").replace("per_class = 1000", "per_class = 50")
    perfect = ChannelConfig(rate_bps=0.0)
    cfg = dataclasses.replace(parse_config(text), channel=perfect)
    slim_metrics, _ = run_experiment(cfg, 1)

    cfg_15 = dataclasses.replace(
        cfg, federation=dataclasses.replace(cfg.federation, scheme="vanilla-1.5x")
    )
    van_metrics, _ = run_experiment(cfg_15, 1)

    p_mw = perfect.total_power_w * 1000
    for m in slim_metrics:
        assert m.comm_power_mw == p_mw
        assert m.decoded_megabits == 10 * 172_688 / 1e6  # every device fully decoded
    for m in van_metrics:
        assert m.comm_power_mw == 2 * p_mw
        assert m.decoded_megabits == 10 * (172_688 + 86_344) / 1e6
    assert slim_metrics[0].comm_power_mw / van_metrics[0].comm_power_mw == 0.5
    assert f"{slim_metrics[0].comm_power_mw:.1f}" == "199.5"
    assert f"{van_metrics[0].comm_power_mw:.1f}" == "399.1"
    report(8, "power 199.5 vs 399.1 mW (ratio exactly 0.5); perfect-channel bits = K x payload")


# ------------------------------------------------------------------ 9 ----


def test_criterion_9_dirichlet_entropy_contrast():
    """Lower concentration produces significantly lower per-shard label entropy."""
    labels = np.repeat(np.arange(10), 500)

    def mean_entropy(alpha, seed):
        shards = dirichlet_partition(labels, 10, alpha, rngmod.stream(seed, "partition"))
        values = []
        for shard in shards:
            p = shard.class_histogram / len(shard)
            p = p[p > 0]
            values.append(float(-(p * np.log(p)).sum()))
        return float(np.mean(values))

    skewed = [mean_entropy(0.1, s) for s in range(100)]
    uniform = [mean_entropy(10.0, 1000 + s) for s in range(100)]
    assert np.mean(skewed) < np.mean(uniform)
    pvalue = stats.mannwhitneyu(skewed, uniform, alternative="less").pvalue
    assert pvalue < 0.01
    report(
        9,
        f"entropy {np.mean(skewed):.3f} (alpha=0.1) < {np.mean(uniform):.3f} "
        f"(alpha=10), p = {pvalue:.2e}",
    )


# ----------------------------------------------------------------- 10 ----


def test_criterion_10_determinism(tmp_path):
    """Same master seed gives byte-identical CSVs, serial or device-parallel
    (the device stack split over two processes)."""
    text = BASE_TREND_CONFIG.format(
        scheme="slimfl", weights="0.5,0.5", hidden=8, lr=0.01, iters=2, spread=0.4
    ).replace("rounds = 300", "rounds = 10").replace("per_class = 1000", "per_class = 60")
    cfg = parse_config(text)
    par_cfg = dataclasses.replace(
        cfg, federation=dataclasses.replace(cfg.federation, parallel_devices=True)
    )

    digests, feds = [], []
    make_run = experiment.make_run
    for tag, config in (("s1", cfg), ("s2", cfg), ("p1", par_cfg), ("p2", par_cfg)):
        engine = split_stacks() if config is par_cfg else contextlib.nullcontext()
        with engine, pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "make_run", lambda *a: feds.append(make_run(*a)) or feds[-1])
            metrics, _ = run_experiment(config, 11)
        path = tmp_path / f"{tag}.csv"
        write_metrics_csv(path, metrics)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert [run.local.parts for fed in feds for run in fed.runs] == [1, 1, 2, 2]
    assert len(set(digests)) == 1  # reruns AND parallel schedules agree
    report(10, f"4 runs (2 serial, 2 split over 2 processes) share sha256 {digests[0][:12]}...")
