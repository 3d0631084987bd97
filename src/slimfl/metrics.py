"""Round metrics, cost accounting, CSV/JSON emission, convergence detection."""

from __future__ import annotations

import csv
import json
import math
import os
import typing
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .slimnet import Layout, build_mask, model_cost


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


# RoundMetrics fields whose CSV column is named otherwise
_COLUMN_NAMES = {
    "acc_half": "acc_0.5x", "acc_full": "acc_1.0x",
    "comm_power_mw": "comm_power_mW", "comp_mflops": "comp_MFLOPS",
}
CSV_HEADER = [_COLUMN_NAMES.get(f.name, f.name) for f in fields(RoundMetrics)]


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
    return "" if math.isnan(value) else f"{value:.6f}"


# (field, format) of each CSV column, by the field's declared type
_FORMATS = [
    (name, {int: str, float: _fmt}[hint])
    for name, hint in typing.get_type_hints(RoundMetrics).items()
]


def metrics_rows(metrics: list[RoundMetrics]) -> list[list[str]]:
    rows = [[fmt(getattr(m, name)) for name, fmt in _FORMATS] for m in metrics]
    return [list(CSV_HEADER), *rows]


@contextmanager
def _replacing(path):
    """A text file opened beside ``path`` that replaces ``path`` in one step
    once the block has written it, in a directory made now if missing; a
    failed block leaves ``path`` as it was."""
    tmp = f"{path}.tmp"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_metrics_csv(path, metrics: list[RoundMetrics]) -> None:
    with _replacing(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(metrics_rows(metrics))


def json_text(obj) -> str:
    """``obj`` as strict JSON, indented with sorted keys: JSON has no
    Infinity or NaN, so each non-finite number is written as null."""
    return json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False)


def _finite(obj):
    """``obj`` with each non-finite float, at any depth, replaced by None."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(path, obj) -> None:
    """``json_text(obj)``, replacing ``path`` in one step."""
    with _replacing(path) as fh:
        fh.write(json_text(obj) + "\n")


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
