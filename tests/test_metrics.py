"""Convergence detection, energy accounting, CSV shape."""

import math

import numpy as np

from slimfl.metrics import (
    CSV_HEADER,
    CostModel,
    RoundMetrics,
    detect_convergence,
    energy_report,
    metrics_rows,
)
from slimfl.slimnet import Layout

RNG = np.random.default_rng


def row(i, comm=199.5, comp=3.56):
    return RoundMetrics(
        round=i, acc_half=0.5, acc_full=0.6, loss=1.0,
        decoded_none=0, decoded_lh_only=1, decoded_both=9,
        decoded_megabits=1.0, comm_power_mw=comm, comp_mflops=comp,
    )


class TestDetectConvergence:
    def test_constant_high_trace_converges_at_first_window(self):
        assert detect_convergence([0.85] * 150) == 100

    def test_constant_low_trace_never_converges(self):
        assert detect_convergence([0.70] * 400) is None

    def test_short_trace_returns_none(self):
        assert detect_convergence([0.9] * 99) is None

    def test_noisy_ramp_matches_reference_scan(self):
        rng = RNG(0)
        trace = np.clip(np.linspace(0.0, 0.9, 300) + rng.normal(0, 0.01, 300), 0, 1)

        def reference_scan(values, window=100, mu=0.80, sigma=0.0725):
            for start in range(len(values) - window + 1):
                chunk = values[start : start + window]
                if np.mean(chunk) > mu and np.std(chunk) < sigma:
                    return start + window
            return None

        assert detect_convergence(trace) == reference_scan(trace)

    def test_unstable_trace_blocked_by_std_threshold(self):
        # mean is high but the swing keeps std above the threshold
        trace = [0.95 if i % 2 else 0.75 for i in range(300)]
        assert np.mean(trace) > 0.80
        assert detect_convergence(trace) is None


class TestEnergyReport:
    def test_totals_multiply_per_round_constants(self):
        metrics = [row(i + 1) for i in range(50)]
        report = energy_report(metrics, convergence_round=10)
        assert report["complete"]
        assert abs(report["comm_power_w_total"] - 1.995) < 1e-9
        assert abs(report["comp_mflops_total"] - 35.6) < 1e-9

    def test_without_convergence_marked_incomplete(self):
        metrics = [row(i + 1) for i in range(5)]
        report = energy_report(metrics, convergence_round=None)
        assert not report["complete"]
        assert report["rounds_counted"] == 5

    def test_equal_convergence_gives_exact_half_ratio(self):
        # the doubled-resource scheme transmits exactly twice the power
        slim = energy_report([row(i + 1) for i in range(20)], 20)
        big = energy_report([row(i + 1, comm=2 * 199.5) for i in range(20)], 20)
        assert slim["comm_power_w_total"] / big["comm_power_w_total"] == 0.5


class TestCostModel:
    def test_reference_constants(self):
        cost = CostModel.reference()
        assert cost.half_bits == 86_344
        assert cost.full_bits == 172_688
        assert cost.half_mflops == 0.79
        assert cost.full_mflops == 2.76
        # published payload implies about 37.66 bits per parameter
        assert abs(cost.full_bits / 4586 - 37.66) < 0.01

    def test_layout_costs_follow_mask_counts(self):
        layout = Layout.mlp(784, (128,), 10)
        cost = CostModel.from_layout(layout, bits_per_param=32.0)
        assert cost.full_bits == 101_770 * 32
        assert cost.half_bits == 50_890 * 32


class TestCsvRows:
    def test_header_and_field_order(self):
        rows = metrics_rows([row(1)])
        assert rows[0] == CSV_HEADER
        assert rows[1][0] == "1"
        assert rows[1][1] == "0.500000"

    def test_nan_accuracy_renders_empty(self):
        m = RoundMetrics(
            round=1, acc_half=math.nan, acc_full=0.5, loss=1.0,
            decoded_none=0, decoded_lh_only=0, decoded_both=1,
            decoded_megabits=0.1, comm_power_mw=1.0, comp_mflops=1.0,
        )
        assert metrics_rows([m])[1][1] == ""
