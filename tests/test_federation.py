"""Aggregation cases, decode-level plumbing, vanilla baselines, evaluation."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slimfl.channel import (
    ChannelConfig,
    config_for_decode_probs,
    decode_thresholds,
    rate_for_sinr_threshold,
)
from slimfl import experiment
from slimfl.config import load_config
from slimfl.datasets import Dataset, Shard, dirichlet_partition
from slimfl.experiment import VanillaPair
from slimfl.federation import (
    FederatedRun,
    FederationConfig,
    LocalTraining,
    Width,
    aggregate,
    evaluate,
    vanilla_threshold,
)
from slimfl.metrics import CostModel
from slimfl.slimnet import Layout, SlimmableParams, build_mask, forward, init_params
from slimfl.training import STEP_FUNCTIONS, LocalOptimizer, TrainConfig
from slimfl import rng as rngmod

RNG = np.random.default_rng
REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.ini"


def perfect_channel() -> ChannelConfig:
    return ChannelConfig(rate_bps=0.0)


def make_task(seed=0, n=200, dim=10, classes=4):
    rng = RNG(seed)
    x = rng.normal(size=(n, dim))
    y = rng.integers(0, classes, size=n).astype(np.int64)
    train = Dataset(x, y, classes)
    tx = rng.normal(size=(80, dim))
    ty = np.repeat(np.arange(classes, dtype=np.int64), 20)
    return train, Dataset(tx, ty, classes)


def single_width(cfg: TrainConfig) -> TrainConfig:
    return dataclasses.replace(cfg, st_weights=(1.0,), width_ratios=(1.0,), algorithm="widthwise")


def make_run(scheme="slimfl", seed=0, rounds=3, n_devices=4, chan=None, parallel=False):
    train, test = make_task(seed)
    layout = Layout.mlp(10, (8,), 4)
    shards = dirichlet_partition(train.y, n_devices, 1.0, rngmod.stream(seed, "partition"))
    init = init_params(layout, rngmod.stream(seed, "init"))
    train_cfg = TrainConfig(batch_size=16)
    fed_cfg = FederationConfig(n_devices=n_devices, scheme=scheme, parallel_devices=parallel)
    chan = chan or perfect_channel()
    cost = CostModel.reference()
    full = Width(build_mask(layout, 1.0), "full", cost.full_bits, cost.full_mflops)
    common = dict(
        layout=layout, init_values=init.values, train=train, shards=shards, test=test,
        chan_cfg=chan, fed_cfg=fed_cfg, rounds=rounds, master_seed=seed,
    )
    if scheme == "slimfl":
        half = Width(build_mask(layout, 0.5), "half", cost.half_bits, cost.half_mflops)
        return FederatedRun(
            train_cfg=train_cfg, widths=(half, full), thresholds=decode_thresholds(chan),
            **common,
        )
    return FederatedRun(
        train_cfg=single_width(train_cfg), widths=(full,),
        thresholds=np.array([vanilla_threshold(chan, 2.0)]), stream_tag=("v-full",), **common,
    )


class TestAggregate:
    def setup_method(self):
        self.layout = Layout.mlp(6, (4,), 3)
        self.lh_bits = build_mask(self.layout, 0.5).bits
        rng = RNG(1)
        self.devices = rng.normal(size=(4, self.layout.size))
        self.previous = rng.normal(size=self.layout.size)

    def test_identical_devices_yield_their_value(self):
        shared = np.stack([self.devices[0]] * 4)
        new = aggregate(self.previous, shared, np.array([1, 1, 2, 2]), self.lh_bits)
        np.testing.assert_allclose(new, self.devices[0])

    def test_everyone_full_equals_fedavg(self):
        new = aggregate(self.previous, self.devices, np.full(4, 2), self.lh_bits)
        np.testing.assert_array_equal(new, np.mean(self.devices, axis=0))

    def test_two_device_case(self):
        # device A delivered only its first segment, device B both
        new = aggregate(self.previous, self.devices, np.array([1, 2, 0, 0]), self.lh_bits)
        lh = self.lh_bits
        np.testing.assert_allclose(new[lh], (self.devices[0][lh] + self.devices[1][lh]) / 2)
        np.testing.assert_array_equal(new[~lh], self.devices[1][~lh])

    def test_second_segment_retained_when_nobody_delivers_it(self):
        new = aggregate(self.previous, self.devices, np.array([1, 0, 1, 0]), self.lh_bits)
        np.testing.assert_array_equal(new[~self.lh_bits], self.previous[~self.lh_bits])
        np.testing.assert_allclose(
            new[self.lh_bits],
            (self.devices[0][self.lh_bits] + self.devices[2][self.lh_bits]) / 2,
        )

    def test_nothing_decoded_leaves_global_unchanged(self):
        new = aggregate(self.previous, self.devices, np.zeros(4, dtype=int), self.lh_bits)
        np.testing.assert_array_equal(new, self.previous)
        assert new is not self.previous

    def test_expected_weighting_divides_by_expected_counts(self):
        new = aggregate(
            self.previous, self.devices, np.array([1, 2, 0, 0]), self.lh_bits, (3.2, 1.6)
        )
        lh = self.lh_bits
        np.testing.assert_allclose(new[lh], (self.devices[0][lh] + self.devices[1][lh]) / 3.2)
        np.testing.assert_allclose(new[~lh], self.devices[1][~lh] / 1.6)

    def test_brute_force_oracle_spot_check(self):
        # per-coordinate reimplementation with plain python sums
        levels = np.array([1, 2, 0, 1])
        new = aggregate(self.previous, self.devices, levels, self.lh_bits)
        for j in range(self.layout.size):
            delivered = [0, 1, 3] if self.lh_bits[j] else [1]
            expected = sum(self.devices[k][j] for k in delivered) / len(delivered)
            assert new[j] == expected

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        levels=st.lists(st.integers(0, 2), min_size=1, max_size=32),
        size=st.integers(1, 40),
        first_bits=st.one_of(st.just("all"), st.integers(0, 2**16)),
        expected=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_coordinate_oracle_for_any_k(
        self, levels, size, first_bits, expected, seed
    ):
        rng = RNG(seed)
        levels = np.array(levels)
        devices = rng.normal(size=(len(levels), size))
        previous = rng.normal(size=size)
        if first_bits == "all":
            bits = np.ones(size, dtype=bool)
        else:
            bits = RNG(first_bits).random(size) < 0.5
        divisors = tuple(rng.uniform(0.1, 2.0, 2) * len(levels)) if expected else None
        got = aggregate(previous, devices, levels, bits, divisors)

        first, rest = np.flatnonzero(levels >= 1), np.flatnonzero(levels == 2)
        div_first, div_rest = (len(first), len(rest)) if divisors is None else divisors
        oracle = previous.copy()
        for j in range(size):
            if len(first) and bits.all() and size > 1:
                # a one-segment mean sums the devices in order (a single
                # coordinate is one contiguous column, reduced as below)
                total = 0.0
                for k in first:
                    total += devices[k, j]
                oracle[j] = total / div_first
            elif len(first) and bits[j]:
                # a masked segment: numpy's reduction of one contiguous column
                oracle[j] = devices[first, j].sum() / div_first
            elif len(rest) and not bits[j]:
                oracle[j] = devices[rest, j].sum() / div_rest
        assert np.array_equal(got, oracle), (got - oracle)


class TestEvaluate:
    def test_zero_params_on_balanced_test_hit_chance_level(self):
        layout = Layout.mlp(10, (8,), 4)
        params = SlimmableParams(layout, np.zeros(layout.size))
        _, test = make_task(3)
        half, full = build_mask(layout, 0.5), build_mask(layout, 1.0)
        acc_half, acc_full = evaluate(params, (half, full), test.x, test.y)
        assert acc_half == acc_full == 0.25  # argmax ties resolve to class 0

    def test_accuracies_within_unit_interval(self):
        layout = Layout.mlp(10, (8,), 4)
        params = init_params(layout, RNG(4))
        _, test = make_task(5)
        masks = (build_mask(layout, 0.5), build_mask(layout, 1.0))
        for acc in evaluate(params, masks, test.x, test.y):
            assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("ratios", [(0.5, 1.0), (1.0,)], ids=["slimfl", "vanilla"])
    def test_shared_first_layer_gives_each_masks_accuracy(self, ratios):
        layout = Layout.mlp(10, (8,), 4)
        params = init_params(layout, RNG(7))
        _, test = make_task(5)
        masks = [build_mask(layout, r) for r in ratios]
        alone = [float((forward(params, m, test.x).argmax(1) == test.y).mean()) for m in masks]
        assert len(set(alone)) == len(alone)  # a mask mixed up with another would show
        assert evaluate(params, masks, test.x, test.y) == alone

    def test_empty_test_set_rejected(self):
        layout = Layout.mlp(10, (8,), 4)
        params = init_params(layout, RNG(6))
        with pytest.raises(ValueError, match="nonempty"):
            evaluate(params, [build_mask(layout, 0.5)], np.zeros((0, 10)), np.zeros(0, dtype=int))


LOCAL_TRAIN, _ = make_task(20)
# skewed shards, several smaller than the batch: padded batches of several lengths
SKEWED_SHARDS = dirichlet_partition(LOCAL_TRAIN.y, 6, 0.1, rngmod.stream(20, "partition"))


def index_shards(index_lists) -> list[Shard]:
    return [
        Shard(k, np.array(indices), np.bincount(LOCAL_TRAIN.y[indices], minlength=4))
        for k, indices in enumerate(index_lists)
    ]


class TestLocalTraining:
    def test_skewed_example_pads_several_batch_lengths(self):
        assert len({min(32, len(shard)) for shard in SKEWED_SHARDS}) > 2

    @pytest.mark.parametrize("rule", sorted(STEP_FUNCTIONS))
    @settings(max_examples=50, deadline=None, database=None)
    @given(
        shards=st.lists(
            st.lists(st.integers(0, len(LOCAL_TRAIN) - 1), min_size=1, max_size=40, unique=True),
            min_size=1,
            max_size=8,
        ).map(index_shards),
        batch_size=st.integers(1, 32),
        local_iters=st.integers(1, 3),
        optimizer=st.sampled_from(["adam", "sgd"]),
    )
    @example(shards=SKEWED_SHARDS, batch_size=32, local_iters=2, optimizer="adam")
    def test_matches_each_device_trained_alone(
        self, rule, shards, batch_size, local_iters, optimizer
    ):
        train, n_devices = LOCAL_TRAIN, len(shards)
        layout = Layout.mlp(10, (8,), 4)
        cfg = TrainConfig(batch_size=batch_size, algorithm=rule, optimizer=optimizer)
        init = init_params(layout, rngmod.stream(20, "init")).values
        engine = LocalTraining(
            layout=layout, train=train, shards=shards, train_cfg=cfg,
            batch_rngs=[rngmod.stream(20, "batch", k) for k in range(n_devices)],
            local_iters=local_iters,
        )
        start = [init] * n_devices
        for _ in range(2):  # optimizer state carries over between rounds
            start, losses = engine.run(start)

        # reference: the per-device loop, one device at a time
        step = STEP_FUNCTIONS[rule]
        for k, shard in enumerate(shards):
            params = SlimmableParams(layout, init)
            rng, opt = rngmod.stream(20, "batch", k), LocalOptimizer(cfg, layout.size)
            size = min(cfg.batch_size, len(shard))
            for _ in range(2 * local_iters):  # two rounds of local steps
                idx = rng.choice(shard.indices, size=size, replace=False)
                result = step(params, train.x[idx], train.y[idx], cfg, opt)
                params = result.params
            assert start[k].tobytes() == params.values.tobytes()
            assert np.float64(losses[k]).tobytes() == np.float64(result.loss).tobytes()


    def test_fanout_step_holds_no_extra_stack(self):
        # K=100 devices, batch 8: the benchmark's fanout configuration
        cfg = load_config(REFERENCE)
        cfg = dataclasses.replace(
            cfg,
            federation=dataclasses.replace(cfg.federation, n_devices=100),
            training=dataclasses.replace(cfg.training, batch_size=8),
        )
        run = experiment.make_run(cfg, 1)
        for _ in range(3):  # warm: the Adam moments and caches exist
            run.run_round()
        stack_bytes = run.device_values.size * 8
        tracemalloc.start()
        try:
            run.local.run(run.device_values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 3.90; the step held 5.54 while it copied the start stack,
        # and 4.54 while each sub-width masked a copy of layer 0's weights
        assert peak <= 3.95 * stack_bytes, (
            f"LocalTraining.run peaked at {peak / stack_bytes:.2f} (devices, P) stacks above "
            "its start, over the 3.95 pinned: one more (devices, P) array held across the "
            "step lets glibc trim the freed step temporaries back to the OS and fault them "
            "in again next step (about 2,550 minor page faults per K=100 round)"
        )


class TestSlimFLRound:
    def test_perfect_channel_aggregates_all_devices_both_segments(self):
        run_a = make_run(seed=7)
        metrics = run_a.run_round()
        assert metrics.decoded_both == 4
        assert metrics.decoded_none == metrics.decoded_lh_only == 0

        # reconstruct: fresh identical run, local updates only, then plain mean
        run_b = make_run(seed=7)
        locals_b, _ = run_b.local.run(run_b.device_values)
        np.testing.assert_array_equal(run_a.global_values, np.mean(np.stack(locals_b), axis=0))
        for k in range(4):
            np.testing.assert_array_equal(run_a.device_values[k], run_a.global_values)

    def test_dead_channel_keeps_global(self):
        dead = ChannelConfig(
            rate_bps=rate_for_sinr_threshold(3.0, 75e6), power_split=0.6
        )  # both thresholds infinite
        run = make_run(seed=8, chan=dead)
        before = run.global_values.copy()
        metrics = run.run_round()
        assert metrics.decoded_none == 4
        np.testing.assert_array_equal(run.global_values, before)

    def test_scripted_mixed_outcomes(self):
        run = make_run(seed=9, n_devices=3)
        locals_, _ = run.local.run(run.device_values)
        run_b = make_run(seed=9, n_devices=3)
        run_b.decode_levels = lambda: np.array([2, 1, 0])  # device 2 silent
        metrics = run_b.run_round()
        assert (metrics.decoded_both, metrics.decoded_lh_only, metrics.decoded_none) == (1, 1, 1)
        lh = run_b.widths[0].mask.bits
        np.testing.assert_allclose(
            run_b.global_values[lh], (locals_[0][lh] + locals_[1][lh]) / 2
        )
        np.testing.assert_array_equal(run_b.global_values[~lh], locals_[0][~lh])

    def test_decoded_bits_use_reference_payloads(self):
        run = make_run(seed=10)
        metrics = run.run_round()
        assert metrics.decoded_megabits == 4 * 172_688 / 1e6
        assert abs(metrics.comm_power_mw - 199.5262315) < 1e-6
        assert metrics.comp_mflops == pytest.approx(0.79 + 2.76)

    def test_parallel_devices_match_sequential(self):
        seq = make_run(seed=11, rounds=3)
        par = make_run(seed=11, rounds=3, parallel=True)
        m_seq = seq.run()
        m_par = par.run()
        np.testing.assert_array_equal(seq.global_values, par.global_values)
        assert m_seq == m_par


class TestVanillaRun:
    def test_perfect_channel_is_plain_fedavg(self):
        # 10 devices: numpy sums 8 or more rows of a masked copy pairwise,
        # which would differ from the mean in the last bits
        for n_devices in (4, 10):
            run_a = make_run("vanilla-1.0x", seed=12, n_devices=n_devices)
            run_a.run_round()
            run_b = make_run("vanilla-1.0x", seed=12, n_devices=n_devices)
            locals_b, _ = run_b.local.run(run_b.device_values)
            np.testing.assert_array_equal(
                run_a.global_values, np.mean(np.stack(locals_b), axis=0)
            )

    def test_payload_scaled_threshold_is_harder_for_bigger_models(self):
        chan = config_for_decode_probs(0.7, 0.5)
        assert vanilla_threshold(chan, 2.0) > vanilla_threshold(chan, 1.0)

    def test_poor_channel_decodes_fewer_bits_than_good(self):
        good = make_run("vanilla-1.0x", seed=13, rounds=30)
        poor = make_run(
            "vanilla-1.0x", seed=13, rounds=30, chan=config_for_decode_probs(0.55, 0.3)
        )
        good_bits = sum(m.decoded_megabits for m in good.run())
        poor_bits = sum(m.decoded_megabits for m in poor.run())
        assert poor_bits < good_bits

    def test_metrics_fill_only_their_width_column(self):
        run = make_run("vanilla-1.0x", seed=14)
        m = run.run_round()
        assert math.isnan(m.acc_half) and not math.isnan(m.acc_full)
        assert m.decoded_lh_only == 0


class TestCombinedVanillaRun:
    """vanilla-1.5x: the half- and full-width baselines paired by the experiment layer."""

    def build(self, seed=15, rounds=2):
        train, test = make_task(seed)
        layout_full = Layout.mlp(10, (8,), 4)
        layout_half = Layout.mlp(10, (4,), 4)
        shards = dirichlet_partition(train.y, 3, 1.0, rngmod.stream(seed, "partition"))
        train_cfg = single_width(TrainConfig(batch_size=16))
        fed_cfg = FederationConfig(n_devices=3, scheme="vanilla-1.5x")
        chan = perfect_channel()
        cost = CostModel.reference()

        def sub(layout, label, tag, bits, mflops, payload):
            init = init_params(layout, rngmod.stream(seed, "init", tag))
            return FederatedRun(
                layout=layout, init_values=init.values, train=train, shards=shards,
                test=test, train_cfg=train_cfg, chan_cfg=chan, fed_cfg=fed_cfg,
                widths=(Width(build_mask(layout, 1.0), label, bits, mflops),),
                thresholds=np.array([vanilla_threshold(chan, payload)]),
                rounds=rounds, master_seed=seed, stream_tag=(tag,),
            )

        return VanillaPair(
            sub(layout_half, "half", "v-half", cost.half_bits, cost.half_mflops, 1.0),
            sub(layout_full, "full", "v-full", cost.full_bits, cost.full_mflops, 2.0),
        )

    def test_doubles_power_and_sums_compute(self):
        run = self.build()
        m = run.run_round()
        assert abs(m.comm_power_mw - 2 * 199.5262315) < 1e-6
        assert m.comp_mflops == pytest.approx(0.79 + 2.76)
        assert not math.isnan(m.acc_half) and not math.isnan(m.acc_full)

    def test_decode_counts_partition_devices(self):
        run = self.build(seed=16)
        m = run.run_round()
        assert m.decoded_none + m.decoded_lh_only + m.decoded_both == 3

    def test_perfect_channel_bits_sum_both_models(self):
        run = self.build(seed=17)
        m = run.run_round()
        assert m.decoded_megabits == pytest.approx(3 * (86_344 + 172_688) / 1e6)

    def test_scripted_half_only_device_counts_as_lh_only(self):
        run = self.build(seed=18)
        run.half_run.decode_levels = lambda: np.array([1, 1, 0])
        run.full_run.decode_levels = lambda: np.array([1, 0, 0])
        m = run.run_round()
        assert (m.decoded_both, m.decoded_lh_only, m.decoded_none) == (1, 1, 1)
        assert m.decoded_megabits == pytest.approx((2 * 86_344 + 172_688) / 1e6)
