"""Round metrics, cost accounting, CSV/JSON emission, convergence detection."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .slimnet import Layout, build_mask, model_cost

CSV_HEADER = [
    "round",
    "acc_0.5x",
    "acc_1.0x",
    "loss",
    "decoded_none",
    "decoded_lh_only",
    "decoded_both",
    "decoded_megabits",
    "comm_power_mW",
    "comp_MFLOPS",
]


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    acc_half: float  # nan when the scheme has no half-width model
    acc_full: float  # nan when the scheme has no full-width model
    loss: float
    decoded_none: int
    decoded_lh_only: int
    decoded_both: int
    decoded_megabits: float
    comm_power_mw: float
    comp_mflops: float


@dataclass(frozen=True)
class CostModel:
    """Per-round communication payloads (bits) and compute (MFLOPS) per width."""

    half_bits: int
    full_bits: int
    half_mflops: float
    full_mflops: float

    @classmethod
    def reference(cls) -> "CostModel":
        """The published per-round costs of the ultra-light MobileNet profile
        (the desk-scale MLP's own come from ``from_layout``)."""
        return cls(half_bits=86344, full_bits=172688, half_mflops=0.79, full_mflops=2.76)

    @classmethod
    def from_layout(
        cls, layout: Layout, half_ratio: float = 0.5, bits_per_param: float = 32.0
    ) -> "CostModel":
        half = model_cost(layout, build_mask(layout, half_ratio), bits_per_param)
        full = model_cost(layout, build_mask(layout, 1.0), bits_per_param)
        return cls(
            half_bits=half.bits_per_round,
            full_bits=full.bits_per_round,
            half_mflops=half.flops_per_image / 1e6,
            full_mflops=full.flops_per_image / 1e6,
        )


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return ""
    return f"{value:.6f}"


def metrics_rows(metrics: list[RoundMetrics]) -> list[list[str]]:
    rows = [list(CSV_HEADER)]
    for m in metrics:
        rows.append(
            [
                str(m.round),
                _fmt(m.acc_half),
                _fmt(m.acc_full),
                _fmt(m.loss),
                str(m.decoded_none),
                str(m.decoded_lh_only),
                str(m.decoded_both),
                _fmt(m.decoded_megabits),
                _fmt(m.comm_power_mw),
                _fmt(m.comp_mflops),
            ]
        )
    return rows


def write_metrics_csv(path, metrics: list[RoundMetrics]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(metrics_rows(metrics))


def detect_convergence(
    accuracy_trace,
    window: int = 100,
    mean_threshold: float = 0.80,
    std_threshold: float = 0.0725,
) -> int | None:
    """First round (1-based) closing a window with high, steady accuracy.

    Returns the round index at the end of the earliest window whose mean
    accuracy exceeds mean_threshold and whose std stays below std_threshold;
    None when no window qualifies.
    """
    trace = np.asarray(accuracy_trace, dtype=np.float64)
    if len(trace) < window:
        return None
    for start in range(len(trace) - window + 1):
        chunk = trace[start : start + window]
        if chunk.mean() > mean_threshold and chunk.std() < std_threshold:
            return start + window
    return None


def energy_report(metrics: list[RoundMetrics], convergence_round: int | None) -> dict:
    """Cumulative communication power and compute up to convergence.

    Without convergence the totals cover the whole trace and the report is
    marked incomplete.
    """
    complete = convergence_round is not None
    upto = convergence_round if complete else len(metrics)
    rows = metrics[:upto]
    return {
        "complete": complete,
        "rounds_counted": upto,
        "comm_power_w_total": sum(m.comm_power_mw for m in rows) / 1000.0,
        "comp_mflops_total": sum(m.comp_mflops for m in rows),
    }
