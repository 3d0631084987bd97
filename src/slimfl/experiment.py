"""Experiment execution: task construction, per-seed runs, output files."""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import rng as rngmod
from .analysis import (
    PowerObjective,
    estimate_data_skew,
    gradient_noise_bound,
    ConvergenceParams,
    optimality_gap_bound,
    optimize_power_split,
)
from .channel import Rayleigh, decode_probabilities, decode_thresholds
from .config import ExperimentConfig
from .datasets import Dataset, class_means, dirichlet_partition, load_idx, synth_dataset
from .federation import FederatedRun, Federation, Width, vanilla_threshold
from .metrics import (
    CostModel,
    RoundMetrics,
    detect_convergence,
    energy_report,
    write_json,
    write_metrics_csv,
)
from .slimnet import (
    ForwardTrace,
    Layout,
    backward,
    build_mask,
    forward,
    init_params,
    masks_for,
    slim_width,
)
from .training import cross_entropy_grad


@dataclass(frozen=True, eq=False)
class Task:
    train: Dataset
    test: Dataset
    shards: list
    layout: Layout


def build_task(cfg: ExperimentConfig, seed: int) -> Task:
    ds = cfg.dataset
    if ds.kind == "idx":
        train = load_idx(ds.train_images, ds.train_labels)
        test = load_idx(ds.test_images, ds.test_labels)
        if ds.limit:
            train = train.subset(np.arange(min(ds.limit, len(train))))
        dim = train.x.shape[1]
    else:
        means = class_means(ds.classes, ds.dim, rngmod.stream(seed, "synth-means"))
        train = synth_dataset(
            ds.classes, ds.per_class, ds.dim, rngmod.stream(seed, "synth-train"),
            spread=ds.spread, means=means,
        )
        test = synth_dataset(
            ds.classes, ds.test_per_class, ds.dim, rngmod.stream(seed, "synth-test"),
            spread=ds.spread, means=means,
        )
        dim = ds.dim

    shards = dirichlet_partition(
        train.y, cfg.federation.n_devices, ds.alpha, rngmod.stream(seed, "partition")
    )
    layout = Layout.mlp(dim, cfg.model.hidden, train.n_classes)
    return Task(train=train, test=test, shards=shards, layout=layout)


def _cost_model(cfg: ExperimentConfig, layout: Layout) -> CostModel:
    if cfg.costs.use_reference:
        return CostModel.reference()
    return CostModel.from_layout(
        layout, cfg.training.width_ratios[0], cfg.costs.bits_per_param
    )


def make_run(cfg: ExperimentConfig, seed: int, task: Task | None = None) -> Federation:
    """Build the round loop of cfg's scheme at the given master seed."""
    task = task or build_task(cfg, seed)
    cost = _cost_model(cfg, task.layout)
    chan, scheme = cfg.channel, cfg.federation.scheme

    def run(layout, widths, thresholds, train_cfg, tag=()):
        init = init_params(layout, rngmod.stream(seed, "init", *tag))
        return FederatedRun(
            layout=layout, init_values=init.values, train=task.train, shards=task.shards,
            train_cfg=train_cfg, chan_cfg=chan, fed_cfg=cfg.federation, widths=widths,
            thresholds=thresholds, rounds=cfg.rounds, master_seed=seed, stream_tag=tag,
        )

    half = ("half", cost.half_bits, cost.half_mflops)
    full = ("full", cost.full_bits, cost.full_mflops)
    if scheme == "slimfl":
        widths = (
            Width(build_mask(task.layout, cfg.training.width_ratios[0]), *half),
            Width(build_mask(task.layout, 1.0), *full),
        )
        runs = [run(task.layout, widths, decode_thresholds(chan), cfg.training)]
        return Federation(runs, task.test, cfg.eval_every)

    single_width = replace(
        cfg.training, st_weights=(1.0,), width_ratios=(1.0,), algorithm="widthwise"
    )
    dims, ratio = task.layout.dims, cfg.training.width_ratios[0]
    half_layout = Layout((dims[0], *(slim_width(d, ratio) for d in dims[1:-1]), dims[-1]))

    same_rate = cfg.federation.vanilla_rate_mode == "same_rate"

    def vanilla(layout, costs, payload_ratio, tag):
        threshold = vanilla_threshold(chan, 1.0 if same_rate else payload_ratio)
        width = Width(build_mask(layout, 1.0), *costs)
        return run(layout, (width,), np.array([threshold]), single_width, (tag,))

    baselines = {
        "vanilla-0.5x": (half_layout, half, 1.0, "v-half"),
        "vanilla-1.0x": (task.layout, full, 2.0, "v-full"),
    }
    # vanilla-1.5x: both side by side, each with the full power budget
    picked = baselines.values() if scheme == "vanilla-1.5x" else [baselines[scheme]]
    return Federation([vanilla(*args) for args in picked], task.test, cfg.eval_every)


def summarize(cfg: ExperimentConfig, seed: int, metrics: list[RoundMetrics]) -> dict:
    acc_field = "acc_half" if cfg.federation.scheme == "vanilla-0.5x" else "acc_full"
    trace = [getattr(m, acc_field) for m in metrics]
    convergence = (
        detect_convergence(trace) if cfg.eval_every == 1 and len(trace) >= 100 else None
    )
    report = energy_report(metrics, convergence)
    last = metrics[-1]
    return {
        "seed": seed,
        "scheme": cfg.federation.scheme,
        "rounds": len(metrics),
        "convergence_round": convergence,
        "energy": report,
        "final_acc_0.5x": None if math.isnan(last.acc_half) else last.acc_half,
        "final_acc_1.0x": None if math.isnan(last.acc_full) else last.acc_full,
        "decoded_megabits_total": sum(m.decoded_megabits for m in metrics),
    }


def run_experiment(cfg: ExperimentConfig, seed: int) -> tuple[list[RoundMetrics], dict]:
    metrics = make_run(cfg, seed).run()
    return metrics, summarize(cfg, seed, metrics)


def run_all(cfg: ExperimentConfig) -> dict:
    """Run every configured seed; as each finishes, write its CSV and the summary so far."""
    combined = {"scheme": cfg.federation.scheme, "seeds": [], "runs": []}
    for seed in cfg.seeds:
        metrics, summary = run_experiment(cfg, seed)
        csv_path = os.path.join(cfg.output_dir, f"metrics_seed{seed}.csv")
        write_metrics_csv(csv_path, metrics)
        with open(csv_path, "rb") as fh:
            summary["metrics_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        summary["metrics_csv"] = csv_path
        combined["seeds"].append(seed)
        combined["runs"].append(summary)
        write_json(os.path.join(cfg.output_dir, "summary.json"), combined)
    return combined


def analyze_experiment(cfg: ExperimentConfig) -> dict:
    """Closed-form channel/convergence report for a configuration.

    Includes decode probabilities, the power-split optimum (numeric on the
    exact objective plus both closed forms), an objective sample grid, the
    estimated data-skew statistics at the initial model, the gradient-noise
    bound they imply, and the optimality-gap bound curve.
    """
    seed = cfg.seeds[0]
    task = build_task(cfg, seed)

    chan = cfg.channel
    obj = PowerObjective(
        effective_noise=chan.effective_noise,
        sinr_threshold=chan.sinr_threshold,
        total_power_w=chan.total_power_w,
    )
    split = optimize_power_split(obj)
    lo = obj.feasible_lower() + 1e-6
    grid = np.linspace(lo, 1.0 - 1e-6, cfg.analysis.lambda_samples)
    samples = [[float(lam), float(obj.exact(lam))] for lam in grid]

    probs = (
        decode_probabilities(chan).tolist() if isinstance(chan.fading, Rayleigh) else None
    )

    init = init_params(task.layout, rngmod.stream(seed, "init"))
    full_mask = masks_for(task.layout, cfg.training.width_ratios)[-1]

    def grad_fn(indices):
        x, y = task.train.x[indices], task.train.y[indices]
        trace = ForwardTrace()
        logits = forward(init, full_mask, x, trace=trace)
        return backward(init, full_mask, x, cross_entropy_grad(logits, y), trace=trace)

    skew_rng = rngmod.stream(seed, "skew")
    delta_hat, sigma_spread = estimate_data_skew(
        grad_fn, task.shards, cfg.training.batch_size, cfg.analysis.grad_batches, skew_rng
    )

    bound_curve = None
    noise_bound = None
    if probs is not None and probs[0] > 0:
        params = ConvergenceParams(
            strong_convexity=cfg.analysis.strong_convexity,
            smoothness=cfg.analysis.smoothness,
            grad_variance=delta_hat,
            init_distance_sq=cfg.analysis.init_distance_sq,
            decode_probs=(probs[0], probs[1]),
            st_weights=cfg.training.st_weights,
        )
        noise_bound = gradient_noise_bound(params)
        ts = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]
        bound_curve = [[t, optimality_gap_bound(params, t)] for t in ts]

    return {
        "decode_probs": probs,
        "power_split": {
            "numeric": split.lam_numeric,
            "closed_form": split.lam_closed,
            "closed_form_alt": split.lam_closed_alt,
            "alt_exceeds_one": split.lam_closed_alt > 1.0,
        },
        "objective_samples": samples,
        "message_powers_mw": [p * 1000.0 for p in chan.powers],
        "grad_variance_mean": delta_hat,
        "grad_variance_spread": sigma_spread,
        "gradient_noise_bound": noise_bound,
        "gap_bound_curve": bound_curve,
        "st_weights": list(cfg.training.st_weights),
    }
