"""Aggregation cases, decode-level plumbing, vanilla baselines, evaluation,
and the split engine's workers and the round loop's spare-CPU helper.  That
every plan writes the inline bytes, and that a failing or killed helper
names its round, is ``tests/test_engines.py``'s; the cases here pin single
plans.  Every round loop is ``conftest.make_loop``'s."""

import contextlib
import dataclasses
import functools
import gc
import math
import os
import re
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    LAYOUT, LOCAL_TEST, LOCAL_TRAIN, SKEWED_SHARDS, assert_no_child_process,
    counted_evaluations, deadline, index_shards, make_loop, make_task, sampled_rounds,
    split_stacks,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slimfl.engine
from slimfl import experiment, federation
from slimfl.channel import (
    ChannelConfig,
    Rayleigh,
    config_for_decode_probs,
    rate_for_sinr_threshold,
    sample_fading,
)
from slimfl.config import ExperimentConfig, load_config
from slimfl.datasets import Dataset, Shard
from slimfl.federation import (
    FederationConfig,
    LocalTraining,
    aggregate,
    evaluate,
    vanilla_threshold,
)
from slimfl.metrics import metrics_rows
from slimfl.slimnet import Layout, SlimmableParams, build_mask, forward, init_params
from slimfl.training import STEP_FUNCTIONS, LocalOptimizer, TrainConfig
from slimfl import rng as rngmod

RNG = np.random.default_rng
REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.ini"


def config(
    scheme="slimfl", seed=0, rounds=3, n_devices=4, chan=None, batch_size=16, **federation
) -> ExperimentConfig:
    """A small run's config, on a perfect channel unless ``chan``."""
    return ExperimentConfig(
        seeds=(seed,), rounds=rounds, channel=chan or ChannelConfig(rate_bps=0.0),
        training=TrainConfig(batch_size=batch_size),
        federation=FederationConfig(n_devices, scheme=scheme, **federation),
    )


def nan_blind(values: np.ndarray) -> bytes:
    """The bytes of ``values`` with every NaN written as the one ``np.nan``."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


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

    @settings(max_examples=300)
    @given(
        levels=st.lists(st.integers(0, 2), min_size=1, max_size=300),
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

    @settings(max_examples=150)
    @given(
        n_devices=st.integers(1, 300),
        dims=st.tuples(
            st.integers(1, 12), st.lists(st.integers(1, 12), min_size=1, max_size=2),
            st.integers(2, 6),
        ),
        ratio=st.one_of(st.just(None), st.floats(0.05, 1.0)),
        levels=st.sampled_from(["all-2", "partial", "none"]),
        expected=st.booleans(),
        special=st.floats(0.0, 0.2),
        seed=st.integers(0, 2**16),
    )
    # a lone -0.0 column: numpy's sum starts from +0.0 below 8 rows too
    @example(
        n_devices=1, dims=(1, [1, 2], 2), ratio=0.5, levels="all-2", expected=False,
        special=0.125, seed=1,
    )
    def test_segment_sums_match_column_major_copies(
        self, n_devices, dims, ratio, levels, expected, special, seed
    ):
        """Each masked segment's sums, taken row by row, have the bytes of
        numpy's sums of the segment's column-major copy, which every pinned
        output was made with: any device count (blocks of 8, runs over 128),
        random layouts and width ratios or a single-width plain mean, any
        decode levels, expected-count divisors, and ±0, inf and NaN.  Only a
        NaN's sign may differ: the sum of two NaNs keeps one operand's, and
        a NaN in the global vector fails the round's finite check before
        any output."""
        rng = RNG(seed)
        layout = Layout.mlp(dims[0], tuple(dims[1]), dims[2])
        size = layout.size
        bits = np.ones(size, bool) if ratio is None else build_mask(layout, ratio).bits
        levels = {
            "all-2": np.full(n_devices, 2), "none": np.zeros(n_devices, dtype=np.intp),
            "partial": rng.integers(0, 3, n_devices),
        }[levels]
        # columns of mixed magnitudes, some whose sums overflow
        devices = rng.normal(size=(n_devices, size)) * 10.0 ** rng.choice([-3, 0, 3, 307], size)
        previous = rng.normal(size=size)
        for array in (devices, previous):
            hit = rng.random(array.shape) < special
            array[hit] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], hit.sum())
        divisors = tuple(rng.uniform(0.1, 1.0, 2) * n_devices) if expected else None

        decoded, full = devices[levels >= 1], devices[levels >= 2]
        div_first, div_rest = (len(decoded), len(full)) if divisors is None else divisors
        oracle = previous.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            got = aggregate(previous, devices, levels, bits, divisors)
            if len(decoded) and bits.all():
                oracle = decoded.sum(axis=0) / div_first
            elif len(decoded):
                oracle[bits] = decoded[:, bits].sum(axis=0) / div_first
                if len(full):
                    oracle[~bits] = full[:, ~bits].sum(axis=0) / div_rest
        assert nan_blind(got) == nan_blind(oracle)


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


def split(local: LocalTraining, parts: int):
    """``local``, or the ``_DevicePool`` of its ``parts`` parts, as its round
    loop would put in its place."""
    return local if parts == 1 else federation._DevicePool(local, parts, spin=False)


def close(engine) -> None:
    """Stop and reap a split engine's workers, as its round loop would."""
    for worker in getattr(engine, "workers", []):
        worker.close()


def local_training(shards, cfg, local_iters=1) -> LocalTraining:
    """Local training of ``shards`` of the training set, with each device's
    batch and Rayleigh fading streams keyed by master seed 20."""
    return LocalTraining(
        layout=Layout.mlp(10, (8,), 4), train=LOCAL_TRAIN, shards=shards, train_cfg=cfg,
        batch_rngs=[rngmod.stream(20, "batch", k) for k in range(len(shards))],
        fading=Rayleigh(),
        fading_streams=rngmod.StreamFamily(20, [("fading", k) for k in range(len(shards))]),
        local_iters=local_iters,
    )


class TestLocalTraining:
    def test_skewed_example_pads_several_batch_lengths(self):
        assert len({min(32, len(shard)) for shard in SKEWED_SHARDS}) > 2

    @pytest.mark.parametrize("rule", sorted(STEP_FUNCTIONS))
    @settings(max_examples=50)
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
        train = LOCAL_TRAIN
        layout = Layout.mlp(10, (8,), 4)
        cfg = TrainConfig(batch_size=batch_size, algorithm=rule, optimizer=optimizer)
        # two rounds, each from its own global vector
        starts = [init_params(layout, rngmod.stream(20, "init", r)).values for r in range(2)]
        engine = local_training(shards, cfg, local_iters)
        gains = []
        for r, start in enumerate(starts, 1):  # optimizer state carries over between rounds
            values, losses, chi = engine.run(start, r)
            gains.append(chi)

        # reference: the per-device loop, one device at a time
        step = STEP_FUNCTIONS[rule]
        for k, shard in enumerate(shards):
            rng, opt = rngmod.stream(20, "batch", k), LocalOptimizer(cfg, layout.size)
            size = min(cfg.batch_size, len(shard))
            for start in starts:
                params = SlimmableParams(layout, start)
                for _ in range(local_iters):
                    idx = rng.choice(shard.indices, size=size, replace=False)
                    result = step(params, train.x[idx], train.y[idx], cfg, opt)
                    params = result.params
            assert values[k].tobytes() == params.values.tobytes()
            assert np.float64(losses[k]).tobytes() == np.float64(result.loss).tobytes()
            for r, chi in enumerate(gains, 1):  # each round's gain from its own stream
                assert chi[k] == sample_fading(Rayleigh(), rngmod.stream(20, "fading", k, r))

    @pytest.mark.parametrize("plan", ["inline", "sampled", "split"])
    def test_bad_shard_index_raises_in_one_part(self, plan):
        # device 1's shard indexes past the training set: the batch gather
        # checks its indices, in the process, in its round loop's helper or
        # in the split stack's worker that trains device 1 alone
        shards = index_shards([[0, 1], [2, 3]])
        shards[1] = Shard(np.array([len(LOCAL_TRAIN)]), shards[1].class_histogram)
        plans = {
            "inline": functools.partial(sampled_rounds, False), "sampled": sampled_rounds,
            "split": functools.partial(split_stacks, min_devices=1),
        }
        with plans[plan]():
            fed = make_loop(
                config(seed=20, n_devices=2, batch_size=8),
                experiment.Task(LOCAL_TRAIN, LOCAL_TEST, shards, LAYOUT),
            )
            try:
                with pytest.raises((IndexError, slimfl.engine.HelperError)) as info:
                    fed.run_round()
            finally:
                fed.close()
        if plan != "inline":
            [helper] = fed.helpers
            assert info.match(
                rf"^round 1: {re.escape(helper.task)} failed in {helper.role} process {helper.pid}:"
            )
        assert isinstance(info.value if plan == "inline" else info.value.__cause__, IndexError)
        assert_no_child_process()

    def test_start_must_be_one_global_vector(self):
        layout = Layout.mlp(10, (8,), 4)
        init = init_params(layout, rngmod.stream(20, "init")).values
        for parts in (1, 2):
            engine = split(  # a split engine starts its worker here
                local_training(
                    index_shards([[0, 1], [2, 3], [4, 5], [6, 7]]), TrainConfig(batch_size=2)
                ),
                parts,
            )
            try:
                engine.run(init, 1)
                for start in (np.broadcast_to(init, (4, layout.size)), init[:-1], init[None]):
                    with pytest.raises(ValueError, match=rf"one \({layout.size},\) global"):
                        engine.run(start, 2)
                assert engine.parts == parts
            finally:
                close(engine)

    def test_fanout_step_holds_no_extra_stack(self):
        # K=100 devices, batch 8: the benchmark's fanout configuration
        cfg = load_config(REFERENCE)
        cfg = dataclasses.replace(
            cfg,
            federation=dataclasses.replace(cfg.federation, n_devices=100),
            training=dataclasses.replace(cfg.training, batch_size=8),
        )
        fed = experiment.make_run(cfg, 1)
        [run] = fed.runs
        try:
            for _ in range(3):  # warm: the Adam moments and caches exist
                fed.run_round()
            # the stack is split (one part per CPU): this process trains the
            # first part, and only its allocations are traced
            head = 100 // run.local.parts
            stack_bytes = head * run.layout.size * 8
            tracemalloc.start()
            try:
                run.local.run(run.global_values, 4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            fed.close()
        # numpy's two ufunc buffers (np.getbufsize() float64s each) are
        # allocated whatever the device count
        buffers = 2 * 8 * np.getbufsize()
        # measured 3.83 stacks plus the buffers; the step held 5.54 (a 100-device
        # stack, buffers included) while it copied the start stack, and 4.54
        # while each sub-width masked a copy of layer 0's weights
        assert peak - buffers <= 3.95 * stack_bytes, (
            f"LocalTraining.run peaked at {(peak - buffers) / stack_bytes:.2f} (devices, P) "
            f"stacks of its first {head} devices above its start and numpy's buffers, over "
            "the 3.95 pinned: one more such array held across the step lets glibc trim the "
            "freed step temporaries back to the OS and fault them in again next step "
            "(about 2,550 minor page faults per K=100 round)"
        )

    def test_split_run_draws_each_parts_gains_where_it_trains(self, tmp_path):
        log = tmp_path / "draws"
        draw = federation.sample_fading

        def sample_fading(model, rng):
            with log.open("a") as f:  # a worker's memory is its own
                f.write(f"{os.getpid()}\n")
            return draw(model, rng)

        with split_stacks(), pytest.MonkeyPatch.context() as mp:
            mp.setattr(federation, "sample_fading", sample_fading)
            fed = make_loop(config(seed=54, n_devices=5))
            fed.run()
        [worker] = fed.helpers
        # devices 0-1 in this process and 2-4 in the worker, each round
        assert Counter(log.read_text().split()) == {
            str(os.getpid()): 3 * 2, str(worker.pid): 3 * 3
        }


def loop_helper(fed, run) -> list:
    return [fed.helper] if fed.helper else []


# a helper kind: the plan that makes a round loop (a Federation) fork it,
# and the helpers of that kind that the loop forked for a run: a split
# stack's workers ("worker"), or the loop's one spare-CPU helper, which
# draws and evaluates ("sampler")
HELPERS = {
    "worker": (
        functools.partial(split_stacks, min_devices=1),
        lambda fed, run: run.local.workers if run.local.parts == 2 else [],
    ),
    "sampler": (sampled_rounds, loop_helper),
}


@pytest.mark.parametrize("kind", sorted(HELPERS))
class TestHelpers:
    """A run's helper processes, a split stack's workers, or its round
    loop's spare-CPU helper, end with it, however it ends."""

    def test_run_reaps_its_helpers(self, kind):
        plan, helpers = HELPERS[kind]
        with plan():
            fed = make_loop(config(seed=21, rounds=2))
            fed.run()
        assert helpers(fed, fed.runs[0])
        assert_no_child_process()

    def test_failed_run_reaps_its_helpers(self, kind):
        plan, helpers = HELPERS[kind]
        with plan():
            fed = make_loop(config(seed=22, rounds=4))
            [run] = fed.runs
            fed.test = Dataset(np.zeros((0, 10)), np.zeros(0, dtype=np.int64), 4)
            # evaluate, after training: rounds 1 and 2 in the helper, on a
            # spare CPU, as it draws rounds 3 and 4
            error = ValueError if kind == "worker" else RuntimeError
            with pytest.raises(error) as info:
                fed.run()
        cause = info.value if kind == "worker" else info.value.__cause__
        assert isinstance(cause, ValueError) and str(cause) == "test set must be nonempty"
        assert helpers(fed, run)
        assert_no_child_process()

    def test_pair_run_reaps_both_runs_helpers(self, kind):
        plan, helpers = HELPERS[kind]
        with plan(), deadline():
            pair = make_loop(config("vanilla-1.5x", seed=23, rounds=2, n_devices=3))
            pair.run()
        half_run, full_run = pair.runs
        assert helpers(pair, half_run) and helpers(pair, full_run)
        assert_no_child_process()

    def test_collected_run_reaps_its_helpers(self, kind):
        plan, helpers = HELPERS[kind]
        with plan():
            fed = make_loop(config(seed=46))
            fed.run_round()
        assert helpers(fed, fed.runs[0])
        del fed
        gc.collect()
        assert_no_child_process()

    def test_closing_the_first_of_two_live_runs_returns(self, kind):
        # the second run's helper inherits the first's pipe end; unless it
        # closes it, the first helper never sees its pipe close
        plan, helpers = HELPERS[kind]
        with plan():
            first, second = make_loop(config(seed=24)), make_loop(config(seed=25))
            try:
                with deadline():
                    first.run_round()
                    second.run_round()
                    first.close()
            finally:
                second.close()
        assert helpers(first, first.runs[0]) and helpers(second, second.runs[0])
        assert_no_child_process()

    def test_closed_run_cannot_train(self, kind):
        plan, helpers = HELPERS[kind]
        with plan():
            fed = make_loop(config(seed=26))
            fed.run_round()
            fed.close()
        [run] = fed.runs
        head = getattr(run.local, "head", run.local)  # the process's part
        steps = head.opt.t
        trains = [fed.run_round]
        if kind == "worker":  # a one-part engine alone draws its own inputs
            trains.append(lambda: run.local.run(run.global_values, 2))
        for train in trains:
            with pytest.raises(RuntimeError, match=r"^round 2: .* the run is closed"):
                train()
        assert head.opt.t == steps  # refused before the process trained a step


@pytest.mark.parametrize("driven_by", ["run", "run_round"])
def test_the_loop_owns_every_process_and_every_accuracy(driven_by):
    """On every plan, however the loop is driven: after the first round the
    live helper processes are exactly ``Federation.helpers``, which
    ``close`` reaps; every row that ``run_round`` returns holds NaN
    accuracies, and ``evaluated`` holds every round's, equal on every plan."""
    plans = {
        "inline": functools.partial(sampled_rounds, False), "helper": sampled_rounds,
        "split": functools.partial(split_stacks, min_devices=1),
    }
    evaluated = {}
    for name, plan in plans.items():
        with plan(), deadline():
            fed = make_loop(config(seed=59, rounds=5))
            rows, live, run_round = [], [], fed.run_round

            def recorded():  # on the instance, as a round timer wraps it
                rows.append(run_round())
                live.append(set(slimfl.engine._PROCESS_ENDS))
                return rows[-1]

            fed.run_round = recorded
            try:
                if driven_by == "run":
                    fed.run()
                else:
                    for _ in range(fed.rounds):
                        fed.run_round()
            finally:
                fed.close()
        assert_no_child_process()
        assert len(fed.helpers) == (name != "inline")
        assert live[0] == {helper.end for helper in fed.helpers}
        assert all(math.isnan(row.acc_half) and math.isnan(row.acc_full) for row in rows)
        assert sorted(fed.evaluated) == [1, 2, 3, 4, 5]
        evaluated[name] = fed.evaluated
    assert evaluated["inline"] == evaluated["helper"] == evaluated["split"]



@contextlib.contextmanager
def draws_failing_in_helpers(round_: int, poisoned=False):
    """Round loops whose helper processes raise as they draw round
    ``round_``; with ``poisoned``, this process draws NaN inputs for it."""
    process, fill = os.getpid(), LocalTraining._fill

    def faulty_fill(local, drawn, r):
        if r == round_ and os.getpid() != process:
            raise ArithmeticError(f"no draw in round {r}")
        fill(local, drawn, r)
        if r == round_ and poisoned:
            drawn.x[...] = np.nan

    with pytest.MonkeyPatch.context() as mp, deadline():
        mp.setattr(LocalTraining, "_fill", faulty_fill)
        yield


def skewed_loop() -> federation.Federation:
    return make_loop(
        config(seed=60, n_devices=6), experiment.Task(LOCAL_TRAIN, LOCAL_TEST, SKEWED_SHARDS, LAYOUT)
    )


@pytest.mark.parametrize("plan", ["inline", "ring", "split"])
def test_a_loop_that_raised_runs_no_further_round(plan):
    """Once ``run_round`` has raised, every later call raises naming the
    failed round before anything trains: inline after a non-finite loss in
    round 2, on the ring and on a split after the helper's or the worker's
    draw of round 2 failed."""
    plans = {
        "inline": functools.partial(sampled_rounds, False), "ring": sampled_rounds,
        "split": functools.partial(split_stacks, min_devices=1),
    }
    with plans[plan](), draws_failing_in_helpers(2, poisoned=plan == "inline"):
        fed = skewed_loop()
        [run] = fed.runs
        try:
            fed.run_round()
            with pytest.raises((ValueError, slimfl.engine.HelperError), match=r"^round 2: "):
                fed.run_round()
            head = getattr(run.local, "head", run.local)  # the process's part
            trained, steps, values = run.round, head.opt.t, run.global_values.tobytes()
            for _ in range(2):
                with pytest.raises(
                    ValueError, match=rf"^round {trained + 1}: the round loop stopped at round 2$"
                ):
                    fed.run_round()
        finally:
            fed.close()
    # the ring failed before round 2 trained; inline and the split, after
    assert trained == (1 if plan == "ring" else 2)
    assert run.round == trained and head.opt.t == steps and run.global_values.tobytes() == values
    assert_no_child_process()


def test_two_failed_workers_leave_no_answer_unread():
    """A stack in 3 parts whose two workers both fail their draw of round 2:
    the error names the first, and every worker's answer has been read."""
    with split_stacks(min_devices=2, cpus=3), draws_failing_in_helpers(2):
        fed = skewed_loop()
        try:
            fed.run_round()
            with pytest.raises(
                slimfl.engine.HelperError,
                match=r"^round 2: local training of devices 2-3 failed in worker process",
            ):
                fed.run_round()
            unread = [worker.end.poll(1.0) for worker in fed.helpers]
        finally:
            fed.close()
    assert [worker.task for worker in fed.helpers] == [
        "local training of devices 2-3", "local training of devices 4-5",
    ]
    assert unread == [False, False]
    assert_no_child_process()


class TestSampler:
    """A round loop whose stacks train in one process each, with a CPU to
    spare, draws every run's batches and fading gains two rounds ahead in
    its one helper process, which also evaluates every run's global model
    two rounds behind, however the loop is driven; every output byte is
    unchanged, and the helper ends with the loop, however it ends."""

    def test_start_rule_leaves_a_cpu_to_each_thread_and_helper(self):
        if not sys.platform.startswith("linux"):
            pytest.skip("the helper runs on Linux only")
        with pytest.MonkeyPatch.context() as mp:
            # one CPU beyond the threads at each plan: a thread can end in between
            mp.setattr(
                slimfl.engine, "available_cpus", lambda: len(os.listdir("/proc/self/task")) + 1
            )
            first, second = make_loop(config(seed=40)), make_loop(config(seed=41))
            try:
                first.run_round()
                second.run_round()  # the first loop's helper took the spare CPU
            finally:
                first.close()
                second.close()
        assert (first.helper is not None, second.helper is None) == (True, True)

    def test_sampler_draws_no_round_past_the_run(self, tmp_path):
        """The helper draws every round of every run, a pair's two included,
        exactly once, and the process draws none."""
        log = tmp_path / "draws"
        draw = federation.sample_fading

        def sample_fading(model, rng):
            with log.open("a") as f:  # the helper's memory is its own
                f.write(f"{os.getpid()}\n")
            return draw(model, rng)

        with sampled_rounds(), pytest.MonkeyPatch.context() as mp:
            mp.setattr(federation, "sample_fading", sample_fading)
            one = make_loop(config(seed=52, rounds=5))
            one.run()
            pair = make_loop(config("vanilla-1.5x", seed=52, rounds=5, n_devices=3))
            pair.run()
        # rounds x devices: 4 devices in the one run, 3 in each run of the pair
        assert Counter(log.read_text().split()) == {
            str(one.helper.pid): 5 * 4, str(pair.helper.pid): 2 * 5 * 3
        }

    @pytest.mark.parametrize(
        "plan", [functools.partial(sampled_rounds, False), sampled_rounds, split_stacks],
        ids=["inline", "sampled", "split"],
    )
    def test_round_past_the_loop_is_refused_before_it_trains(self, plan):
        with plan(), deadline():
            fed = make_loop(config(seed=53, rounds=2))
            [run] = fed.runs
            head = run.local
            try:
                fed.run_round()
                fed.run_round()
                head = getattr(run.local, "head", run.local)  # the process's part
                steps, values = head.opt.t, run.global_values.tobytes()
                with pytest.raises(ValueError, match=r"^round 3: the round loop has only 2 rounds$"):
                    fed.run_round()
            finally:
                fed.close()
        assert run.round == 2 and head.opt.t == steps and run.global_values.tobytes() == values
        assert_no_child_process()

    def test_a_rounds_vectors_are_in_its_slot_before_the_next_ask(self):
        """When round r + 2 is asked, round r's slot already holds every run's
        global vector of round r, so the helper evaluates round r however
        soon it reads them."""
        asked, ask = [], slimfl.engine.Helper.ask

        def recorded(helper, round_):
            records, _ = pair.slots[round_ % 2]
            asked.append((round_, [record.vector.tobytes() for record in records],
                          [run.global_values.tobytes() for run in pair.runs]))
            ask(helper, round_)

        with sampled_rounds(), pytest.MonkeyPatch.context() as mp, deadline():
            mp.setattr(slimfl.engine.Helper, "ask", recorded)
            pair = make_loop(config("vanilla-1.5x", seed=56, rounds=5, n_devices=3))
            pair.run()
        assert [round_ for round_, _, _ in asked] == [1, 2, 3, 4, 5]
        # rounds 1-3 are evaluated ahead, as the helper draws rounds 3-5
        for _, in_slot, trained in asked[2:]:
            assert in_slot == trained

    def test_rounds_driven_alone_carry_no_accuracies(self):
        """A loop driven through ``run_round`` alone evaluates where ``run()``
        would: its rows hold NaN accuracies, and ``evaluated`` every round's."""
        def rounds(sampled):
            inline = []
            with sampled_rounds(sampled), pytest.MonkeyPatch.context() as mp:
                counted_evaluations(mp, inline)
                fed = make_loop(config(seed=55, rounds=4))
                try:
                    metrics = [fed.run_round() for _ in range(fed.rounds)]
                finally:
                    fed.close()
            # the helper evaluated rounds 1 and 2 as it drew rounds 3 and 4
            assert (fed.helper is not None) == sampled
            assert inline == ([3, 4] if sampled else [1, 2, 3, 4])
            assert all(math.isnan(m.acc_half) and math.isnan(m.acc_full) for m in metrics)
            return metrics_rows(metrics), fed.evaluated

        sampled = rounds(True)
        assert sampled == rounds(False)
        assert sorted(sampled[1]) == [1, 2, 3, 4]

    def test_diverging_run_with_an_evaluator_names_its_round(self):
        with sampled_rounds():
            fed = make_loop(config(seed=58, rounds=4))
            [run] = fed.runs
            train = run.local.run

            def run_local(values, round_, drawn):
                trained, losses, chi = (array.copy() for array in train(values, round_, drawn))
                if round_ == 4:
                    losses[2] = np.nan
                return trained, losses, chi

            run.local.run = run_local
            with pytest.raises(ValueError) as info:
                fed.run()
        assert str(info.value) == "round 4: the local loss of device(s) 2 is not finite"
        # rounds 3 and 4 took round 1's and round 2's accuracies, and the
        # process evaluated round 3
        assert fed.helper is not None and sorted(fed.evaluated) == [1, 2, 3]
        assert_no_child_process()


class TestSlimFLRound:
    def test_perfect_channel_aggregates_all_devices_both_segments(self):
        fed_a = make_loop(config(seed=7))
        metrics = fed_a.run_round()
        assert metrics.decoded_both == 4
        assert metrics.decoded_none == metrics.decoded_lh_only == 0

        # reconstruct: fresh identical run, local updates only, then plain mean
        [run_a], [run_b] = fed_a.runs, make_loop(config(seed=7)).runs
        locals_b, _, _ = run_b.local.run(run_b.global_values, 1)
        np.testing.assert_array_equal(run_a.global_values, np.mean(np.stack(locals_b), axis=0))

    def test_dead_channel_keeps_global(self):
        dead = ChannelConfig(
            rate_bps=rate_for_sinr_threshold(3.0, 75e6), power_split=0.6
        )  # both thresholds infinite
        fed = make_loop(config(seed=8, chan=dead))
        [run] = fed.runs
        before = run.global_values.copy()
        metrics = fed.run_round()
        assert metrics.decoded_none == 4
        np.testing.assert_array_equal(run.global_values, before)

    def test_scripted_mixed_outcomes(self):
        [run] = make_loop(config(seed=9, n_devices=3)).runs
        locals_, _, _ = run.local.run(run.global_values, 1)
        fed_b = make_loop(config(seed=9, n_devices=3))
        [run_b] = fed_b.runs
        run_b.decode_levels = lambda chi: np.array([2, 1, 0])  # device 2 silent
        metrics = fed_b.run_round()
        assert (metrics.decoded_both, metrics.decoded_lh_only, metrics.decoded_none) == (1, 1, 1)
        lh = run_b.widths[0].mask.bits
        np.testing.assert_allclose(
            run_b.global_values[lh], (locals_[0][lh] + locals_[1][lh]) / 2
        )
        np.testing.assert_array_equal(run_b.global_values[~lh], locals_[0][~lh])

    def test_decoded_bits_use_reference_payloads(self):
        run = make_loop(config(seed=10))
        metrics = run.run_round()
        assert metrics.decoded_megabits == 4 * 172_688 / 1e6
        assert abs(metrics.comm_power_mw - 199.5262315) < 1e-6
        assert metrics.comp_mflops == pytest.approx(0.79 + 2.76)

    def test_parallel_devices_match_sequential(self):
        with sampled_rounds(False):  # draws inline, on any host
            seq = make_loop(config(seed=11, rounds=3))
            m_seq = seq.run()
        with split_stacks():  # the "parallel" side trains in a worker process too
            par = make_loop(config(seed=11, rounds=3, parallel_devices=True))
            m_par = par.run()
        with sampled_rounds():  # and a side whose draws come from a helper process
            sam = make_loop(config(seed=11, rounds=3))
            m_sam = sam.run()
        assert [fed.helper is not None for fed in (seq, par, sam)] == [False, False, True]
        [seq], [par], [sam] = seq.runs, par.runs, sam.runs
        assert (seq.local.parts, par.local.parts, sam.local.parts) == (1, 2, 1)
        for run in (par, sam):
            np.testing.assert_array_equal(seq.global_values, run.global_values)
        assert m_seq == m_par == m_sam

    @pytest.mark.parametrize("n_devices", [2, 4])
    def test_each_shard_is_one_device_whatever_the_device_count(self, n_devices):
        """A run trains, draws for and weights one device per shard of its
        task, whatever its config's ``n_devices`` says."""
        shards = index_shards([[0, 1, 2], [3, 4], [5, 6, 7, 8]])

        def outputs(n):
            cfg = config(
                n_devices=n, chan=config_for_decode_probs(0.7, 0.5), batch_size=2,
                aggregation_weighting="expected",
            )
            fed = make_loop(cfg, experiment.Task(LOCAL_TRAIN, LOCAL_TEST, shards, LAYOUT))
            return repr(fed.run()), fed.runs[0].global_values.tobytes()

        assert outputs(n_devices) == outputs(3)


class TestNonFiniteRound:
    """A round whose loss or global vector is not finite stops the run,
    naming the round, the width and the devices."""

    @staticmethod
    def message(poison, scheme="slimfl", levels=None):
        """The error of a 3-round run whose trained stack and losses
        ``poison(run, trained, losses)`` edits each round."""
        fed = make_loop(config(scheme, seed=27))
        [run] = fed.runs
        train = run.local.run

        def run_local(values, round_, drawn):
            trained, losses, chi = (array.copy() for array in train(values, round_, drawn))
            poison(run, trained, losses)
            return trained, losses, chi

        run.local.run = run_local
        if levels is not None:
            run.decode_levels = lambda chi: np.array(levels)
        with pytest.raises(ValueError) as info:
            fed.run()
        return str(info.value)

    def test_loss_names_round_and_devices(self):
        def poison(run, trained, losses):
            if run.round == 2:
                losses[[1, 3]] = [np.nan, np.inf]

        assert self.message(poison) == "round 2: the local loss of device(s) 1, 3 is not finite"

    def test_global_names_width_and_the_devices_that_delivered_it(self):
        def poison(run, trained, losses):
            half = run.widths[0].mask.bits
            trained[0, np.flatnonzero(half)[:3]] = np.inf  # level 2: delivered
            trained[2, ~half] = np.nan  # level 1: its full-width segment is not
            trained[3] = np.nan  # level 0: nothing delivered

        assert self.message(poison, levels=[2, 2, 1, 0]) == (
            "round 1: 3 coordinates of the global model's half-width segment are not "
            "finite; device(s) 0 delivered non-finite values there"
        )

    def test_full_width_segment_is_checked(self):
        def poison(run, trained, losses):
            if run.round == 3:
                trained[1, ~run.widths[0].mask.bits] = np.nan

        assert re.fullmatch(
            r"round 3: \d+ coordinates of the global model's full-width segment are not "
            r"finite; device\(s\) 1 delivered non-finite values there",
            self.message(poison),
        )

    def test_baseline_names_its_one_width(self):
        def poison(run, trained, losses):
            trained[2, 5] = -np.inf

        assert self.message(poison, scheme="vanilla-1.0x") == (
            "round 1: 1 coordinates of the global model's full-width segment are not "
            "finite; device(s) 2 delivered non-finite values there"
        )

    def test_overflowing_average_names_every_device_that_delivered(self):
        def poison(run, trained, losses):
            trained[:2, run.widths[0].mask.bits] = 1e308

        with np.errstate(over="ignore"):
            message = self.message(poison, levels=[2, 1, 1, 0])
        assert message.endswith(
            "half-width segment are not finite; the finite values of device(s) 0, 1, 2 "
            "overflowed their average"
        )


class TestVanillaRun:
    def test_perfect_channel_is_plain_fedavg(self):
        # 10 devices: numpy sums 8 or more rows of a masked copy pairwise,
        # which would differ from the mean in the last bits
        for n_devices in (4, 10):
            fed_a = make_loop(config("vanilla-1.0x", seed=12, n_devices=n_devices))
            fed_a.run_round()
            fed_b = make_loop(config("vanilla-1.0x", seed=12, n_devices=n_devices))
            [run_a], [run_b] = fed_a.runs, fed_b.runs
            locals_b, _, _ = run_b.local.run(run_b.global_values, 1)
            np.testing.assert_array_equal(
                run_a.global_values, np.mean(np.stack(locals_b), axis=0)
            )

    def test_payload_scaled_threshold_is_harder_for_bigger_models(self):
        chan = config_for_decode_probs(0.7, 0.5)
        assert vanilla_threshold(chan, 2.0) > vanilla_threshold(chan, 1.0)

    def test_poor_channel_decodes_fewer_bits_than_good(self):
        good = make_loop(config("vanilla-1.0x", seed=13, rounds=30))
        poor = make_loop(
            config("vanilla-1.0x", seed=13, rounds=30, chan=config_for_decode_probs(0.55, 0.3))
        )
        good_bits = sum(m.decoded_megabits for m in good.run())
        poor_bits = sum(m.decoded_megabits for m in poor.run())
        assert poor_bits < good_bits

    def test_metrics_fill_only_their_width_column(self):
        run = make_loop(config("vanilla-1.0x", seed=14))
        m = run.run()[0]
        assert math.isnan(m.acc_half) and not math.isnan(m.acc_full)
        assert m.decoded_lh_only == 0


class TestCombinedVanillaRun:
    """vanilla-1.5x: the half- and full-width baselines, one ``Federation``."""

    def test_doubles_power_and_sums_compute(self):
        run = make_loop(config("vanilla-1.5x", seed=15, rounds=2, n_devices=3))
        m = run.run()[0]
        assert abs(m.comm_power_mw - 2 * 199.5262315) < 1e-6
        assert m.comp_mflops == pytest.approx(0.79 + 2.76)
        assert not math.isnan(m.acc_half) and not math.isnan(m.acc_full)

    def test_decode_counts_partition_devices(self):
        run = make_loop(config("vanilla-1.5x", seed=16, n_devices=3))
        m = run.run_round()
        assert m.decoded_none + m.decoded_lh_only + m.decoded_both == 3

    def test_perfect_channel_bits_sum_both_models(self):
        run = make_loop(config("vanilla-1.5x", seed=17, n_devices=3))
        m = run.run_round()
        assert m.decoded_megabits == pytest.approx(3 * (86_344 + 172_688) / 1e6)

    def test_scripted_half_only_device_counts_as_lh_only(self):
        run = make_loop(config("vanilla-1.5x", seed=18, n_devices=3))
        half_run, full_run = run.runs
        half_run.decode_levels = lambda chi: np.array([1, 1, 0])
        full_run.decode_levels = lambda chi: np.array([1, 0, 0])
        m = run.run_round()
        assert (m.decoded_both, m.decoded_lh_only, m.decoded_none) == (1, 1, 1)
        assert m.decoded_megabits == pytest.approx((2 * 86_344 + 172_688) / 1e6)
