"""Round orchestration: local training, superposed uplink, aggregation, downlink.

One round runs local steps on every device, draws one fading gain per
device to decide how much of its two-message uplink decodes, rebuilds the
global model from the decoded segments, and broadcasts it back (the
downlink is always assumed successful).  Fixed-width baselines reuse the
same loop with a single-message uplink and plain decoded-set averaging.

Local training is device-batched (``LocalTraining``): all devices step
together as one (devices, P) stack, with results bitwise equal to training
each device alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .channel import (
    ChannelConfig,
    Rayleigh,
    decode_thresholds,
    sample_fading,
    successive_thresholds,
)
from .datasets import Dataset, Shard
from .metrics import CostModel, RoundMetrics
from .slimnet import BatchRows, Layout, SlimmableParams, build_mask, forward, masks_for
from .training import STEP_FUNCTIONS, LocalOptimizer, TrainConfig

SCHEMES = ("slimfl", "vanilla-0.5x", "vanilla-1.0x", "vanilla-1.5x")


@dataclass(frozen=True)
class FederationConfig:
    n_devices: int = 10
    rounds: int = 300
    local_iters: int = 1
    scheme: str = "slimfl"
    aggregation_weighting: str = "empirical"  # "empirical" | "expected"
    vanilla_rate_mode: str = "payload_scaled"  # "payload_scaled" | "same_rate"
    # Accepted so that existing configs still parse, but selects nothing:
    # local training always runs device-batched (LocalTraining).
    parallel_devices: bool = False

    def validate(self) -> None:
        if self.n_devices < 1 or self.rounds < 1 or self.local_iters < 1:
            raise ValueError("n_devices, rounds and local_iters must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.aggregation_weighting not in ("empirical", "expected"):
            raise ValueError(f"unknown aggregation_weighting {self.aggregation_weighting!r}")
        if self.vanilla_rate_mode not in ("payload_scaled", "same_rate"):
            raise ValueError(f"unknown vanilla_rate_mode {self.vanilla_rate_mode!r}")


@dataclass(eq=False)
class RoundState:
    global_values: np.ndarray
    device_values: Sequence[np.ndarray]  # one vector per device
    lh_only: set[int] = field(default_factory=set)  # devices whose first segment alone decoded
    full: set[int] = field(default_factory=set)  # devices whose both segments decoded

    @property
    def n_lh(self) -> int:
        return len(self.lh_only) + len(self.full)

    @property
    def n_rh(self) -> int:
        return len(self.full)


def aggregate(
    global_values: np.ndarray,
    device_values,
    lh_only: set[int],
    full: set[int],
    lh_bits: np.ndarray,
    weighting: str = "empirical",
    expected_counts: tuple[float, float] | None = None,
) -> np.ndarray:
    """Rebuild the global vector from decoded segments.

    First segment: averaged over every device that delivered at least the
    first message.  Second segment: averaged over devices that delivered
    both; retained from the previous global when nobody did.  With
    weighting="expected" the segment sums are divided by the expected
    decode counts instead of the realized ones (analysis cross-checks).
    """
    if lh_only & full:
        raise ValueError("a device cannot be in both decode sets")
    new = global_values.copy()
    contributors = sorted(lh_only | full)
    if not contributors:
        return new
    if weighting == "expected":
        if expected_counts is None:
            raise ValueError("expected weighting needs expected_counts")
        div_lh, div_rh = expected_counts
    else:
        div_lh, div_rh = len(contributors), len(full)
    rh_bits = ~lh_bits

    stacked = np.stack([device_values[k] for k in contributors])
    new[lh_bits] = stacked[:, lh_bits].sum(axis=0) / div_lh
    if full:
        stacked_rh = np.stack([device_values[k] for k in sorted(full)])
        new[rh_bits] = stacked_rh[:, rh_bits].sum(axis=0) / div_rh
    return new


def evaluate(
    params: SlimmableParams, half_mask, x: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """Top-1 accuracy of the half-width and full-width configurations."""
    if len(y) == 0:
        raise ValueError("test set must be nonempty")
    full_mask = masks_for(params.layout, (1.0,))[0]
    acc = []
    for mask in (half_mask, full_mask):
        pred = forward(params, mask, x).argmax(axis=1)
        acc.append(float((pred == y).mean()))
    return acc[0], acc[1]


def _accuracy(params: SlimmableParams, mask, x: np.ndarray, y: np.ndarray) -> float:
    pred = forward(params, mask, x).argmax(axis=1)
    return float((pred == y).mean())


def _broadcast(values: np.ndarray, n_devices: int) -> np.ndarray:
    """Every device's start vector for the next round: read-only views of
    one vector, so no per-device copies."""
    return np.broadcast_to(values, (n_devices, len(values)))


class LocalTraining:
    """Local steps of every device, one stacked step rule call per step.

    All devices train as one (devices, P) stack with one stacked optimizer.
    A device whose shard is smaller than the batch size draws its whole
    shard, min(batch_size, len(shard)) samples, and its batch is padded to
    the longest (``BatchRows``).  Each device draws its batches from its own
    stream, and the step rules compute each row exactly as for one device,
    so every device's result is the one it gets trained alone.
    """

    def __init__(
        self,
        *,
        layout: Layout,
        train: Dataset,
        shards: list[Shard],
        train_cfg: TrainConfig,
        batch_rngs: list[np.random.Generator],
        local_iters: int,
    ):
        self.layout = layout
        self.train = train
        self.shards = shards
        self.train_cfg = train_cfg
        self.batch_rngs = batch_rngs
        self.local_iters = local_iters
        self.step_fn = STEP_FUNCTIONS[train_cfg.algorithm]
        self.sizes = [min(train_cfg.batch_size, len(shard)) for shard in shards]
        width = max(self.sizes)
        self.rows = BatchRows(self.sizes) if min(self.sizes) < width else None
        # padding rows hold training sample 0; the step rules ignore them
        self.batch_idx = np.zeros((len(shards), width), dtype=np.intp)
        self.opt = LocalOptimizer(train_cfg, (len(shards), layout.size))

    def run(self, start_values: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Train every device from its start vector for ``local_iters`` steps.

        Returns the trained vectors as a (devices, P) stack and each
        device's loss at its last step.
        """
        params = SlimmableParams(self.layout, np.stack(start_values))
        batch_idx = self.batch_idx
        for _ in range(self.local_iters):
            for k, (rng, shard, size) in enumerate(zip(self.batch_rngs, self.shards, self.sizes)):
                batch_idx[k, :size] = rng.choice(shard.indices, size=size, replace=False)
            result = self.step_fn(
                params, self.train.x[batch_idx], self.train.y[batch_idx],
                self.train_cfg, self.opt, rows=self.rows,
            )
            params = result.params
        return params.values, result.loss


class SlimFLRun:
    """One training run of the superposition-coded scheme."""

    def __init__(
        self,
        *,
        layout: Layout,
        init_values: np.ndarray,
        train: Dataset,
        shards: list[Shard],
        test: Dataset,
        train_cfg: TrainConfig,
        chan_cfg: ChannelConfig,
        fed_cfg: FederationConfig,
        cost: CostModel,
        master_seed: int,
        eval_every: int = 1,
    ):
        train_cfg.validate()
        fed_cfg.validate()
        self.layout = layout
        self.test = test
        self.chan_cfg = chan_cfg
        self.fed_cfg = fed_cfg
        self.cost = cost
        self.master_seed = master_seed
        self.eval_every = eval_every

        self.half_mask = build_mask(layout, train_cfg.width_ratios[0])
        self.thresholds = decode_thresholds(chan_cfg)
        if fed_cfg.aggregation_weighting == "expected" and not isinstance(
            chan_cfg.fading, Rayleigh
        ):
            raise ValueError("expected-count weighting needs closed-form (Rayleigh) probabilities")
        self.local = LocalTraining(
            layout=layout, train=train, shards=shards, train_cfg=train_cfg,
            batch_rngs=[rngmod.stream(master_seed, "batch", k) for k in range(fed_cfg.n_devices)],
            local_iters=fed_cfg.local_iters,
        )
        global_values = init_values.copy()
        self.state = RoundState(
            global_values=global_values,
            device_values=_broadcast(global_values, fed_cfg.n_devices),
        )
        self.round = 0

    def _decode_sets(self) -> tuple[set[int], set[int]]:
        lh_only, full = set(), set()
        for k in range(self.fed_cfg.n_devices):
            rng = rngmod.stream(self.master_seed, "fading", k, self.round)
            chi = float(sample_fading(self.chan_cfg.fading, rng))
            decoded = int((chi >= self.thresholds).sum())
            if decoded >= 2:
                full.add(k)
            elif decoded == 1:
                lh_only.add(k)
        return lh_only, full

    def run_round(self) -> RoundMetrics:
        self.round += 1
        self.state.device_values, losses = self.local.run(self.state.device_values)
        mean_loss = float(np.mean(losses))

        self.state.lh_only, self.state.full = self._decode_sets()
        self.state.global_values = aggregate(
            self.state.global_values,
            self.state.device_values,
            self.state.lh_only,
            self.state.full,
            self.half_mask.bits,
            self.fed_cfg.aggregation_weighting,
            expected_counts=self._expected_counts(),
        )
        self.state.device_values = _broadcast(self.state.global_values, self.fed_cfg.n_devices)

        if self.round % self.eval_every == 0:
            params = SlimmableParams(self.layout, self.state.global_values)
            acc_half, acc_full = evaluate(params, self.half_mask, self.test.x, self.test.y)
        else:
            acc_half = acc_full = math.nan
        n_both, n_lh_only = len(self.state.full), len(self.state.lh_only)
        decoded_bits = n_both * self.cost.full_bits + n_lh_only * self.cost.half_bits
        return RoundMetrics(
            round=self.round,
            acc_half=acc_half,
            acc_full=acc_full,
            loss=mean_loss,
            decoded_none=self.fed_cfg.n_devices - n_both - n_lh_only,
            decoded_lh_only=n_lh_only,
            decoded_both=n_both,
            decoded_megabits=decoded_bits / 1e6,
            comm_power_mw=self.chan_cfg.total_power_w * 1000.0,
            comp_mflops=(self.cost.half_mflops + self.cost.full_mflops)
            * self.fed_cfg.local_iters,
        )

    def _expected_counts(self) -> tuple[float, float] | None:
        if self.fed_cfg.aggregation_weighting != "expected":
            return None
        probs = np.exp(-self.thresholds)
        return (self.fed_cfg.n_devices * probs[0], self.fed_cfg.n_devices * probs[1])

    def run(self) -> list[RoundMetrics]:
        return [self.run_round() for _ in range(self.fed_cfg.rounds)]


def vanilla_threshold(chan_cfg: ChannelConfig, payload_ratio: float) -> float:
    """Single-message decode threshold with the rate scaled to the payload.

    payload_ratio is the scheme's payload relative to one superposed message
    (the half-width model): 1.0 for a half-width upload, 2.0 for full-width.
    """
    rate = chan_cfg.rate_bps * payload_ratio
    u = 2.0 ** (rate / chan_cfg.bandwidth_hz) - 1.0
    return float(
        successive_thresholds([chan_cfg.total_power_w], chan_cfg.effective_noise, u)[0]
    )


class VanillaRun:
    """Fixed-width federated averaging over a single-message uplink."""

    def __init__(
        self,
        *,
        layout: Layout,
        init_values: np.ndarray,
        train: Dataset,
        shards: list[Shard],
        test: Dataset,
        train_cfg: TrainConfig,
        chan_cfg: ChannelConfig,
        fed_cfg: FederationConfig,
        model_bits: int,
        model_mflops: float,
        payload_ratio: float,
        width_label: str,  # "half" | "full": which accuracy column this model fills
        transmit_power_w: float | None = None,
        stream_tag: str = "",
        master_seed: int = 0,
        eval_every: int = 1,
    ):
        train_cfg.validate()
        fed_cfg.validate()
        self.eval_every = eval_every
        self.layout = layout
        self.test = test
        self.chan_cfg = chan_cfg
        self.fed_cfg = fed_cfg
        self.model_bits = model_bits
        self.model_mflops = model_mflops
        self.width_label = width_label
        self.transmit_power_w = (
            chan_cfg.total_power_w if transmit_power_w is None else transmit_power_w
        )
        self.stream_tag = stream_tag
        self.master_seed = master_seed

        if fed_cfg.vanilla_rate_mode == "same_rate":
            payload_ratio = 1.0
        self.threshold = vanilla_threshold(chan_cfg, payload_ratio)
        self.full_mask = build_mask(layout, 1.0)
        single_width_cfg = TrainConfig(
            st_weights=(1.0,),
            width_ratios=(1.0,),
            lr=train_cfg.lr,
            lr_mode=train_cfg.lr_mode,
            strong_convexity=train_cfg.strong_convexity,
            smoothness=train_cfg.smoothness,
            optimizer=train_cfg.optimizer,
            beta1=train_cfg.beta1,
            beta2=train_cfg.beta2,
            eps=train_cfg.eps,
            batch_size=train_cfg.batch_size,
            algorithm="widthwise",
        )
        self.local = LocalTraining(
            layout=layout, train=train, shards=shards, train_cfg=single_width_cfg,
            batch_rngs=[
                rngmod.stream(master_seed, "batch", stream_tag, k)
                for k in range(fed_cfg.n_devices)
            ],
            local_iters=fed_cfg.local_iters,
        )
        self.global_values = init_values.copy()
        self.device_values = _broadcast(self.global_values, fed_cfg.n_devices)
        self.round = 0

    def run_round(self) -> RoundMetrics:
        self.round += 1
        self.device_values, losses = self.local.run(self.device_values)
        mean_loss = float(np.mean(losses))

        decoded = set()
        for k in range(self.fed_cfg.n_devices):
            rng = rngmod.stream(self.master_seed, "fading", self.stream_tag, k, self.round)
            chi = float(sample_fading(self.chan_cfg.fading, rng))
            if chi >= self.threshold:
                decoded.add(k)
        self.last_decoded = decoded
        if decoded:
            self.global_values = np.stack(
                [self.device_values[k] for k in sorted(decoded)]
            ).mean(axis=0)
        self.device_values = _broadcast(self.global_values, self.fed_cfg.n_devices)

        if self.round % self.eval_every == 0:
            params = SlimmableParams(self.layout, self.global_values)
            acc = _accuracy(params, self.full_mask, self.test.x, self.test.y)
        else:
            acc = math.nan
        n_dec = len(decoded)
        is_full = self.width_label == "full"
        return RoundMetrics(
            round=self.round,
            acc_half=math.nan if is_full else acc,
            acc_full=acc if is_full else math.nan,
            loss=mean_loss,
            decoded_none=self.fed_cfg.n_devices - n_dec,
            decoded_lh_only=0 if is_full else n_dec,
            decoded_both=n_dec if is_full else 0,
            decoded_megabits=n_dec * self.model_bits / 1e6,
            comm_power_mw=self.transmit_power_w * 1000.0,
            comp_mflops=self.model_mflops * self.fed_cfg.local_iters,
        )

    def run(self) -> list[RoundMetrics]:
        return [self.run_round() for _ in range(self.fed_cfg.rounds)]


class CombinedVanillaRun:
    """Two independent fixed-width runs with doubled resources, reported jointly."""

    def __init__(self, half_run: VanillaRun, full_run: VanillaRun):
        self.half_run = half_run
        self.full_run = full_run

    def run_round(self) -> RoundMetrics:
        a = self.half_run.run_round()
        b = self.full_run.run_round()
        # A device counts as "both" when its full-width upload decoded and as
        # "lh_only" when only its half-width upload did.
        half_set, full_set = self.half_run.last_decoded, self.full_run.last_decoded
        n_devices = self.half_run.fed_cfg.n_devices
        return RoundMetrics(
            round=a.round,
            acc_half=a.acc_half,
            acc_full=b.acc_full,
            loss=(a.loss + b.loss) / 2.0,
            decoded_none=n_devices - len(half_set | full_set),
            decoded_lh_only=len(half_set - full_set),
            decoded_both=len(full_set),
            decoded_megabits=a.decoded_megabits + b.decoded_megabits,
            comm_power_mw=a.comm_power_mw + b.comm_power_mw,
            comp_mflops=a.comp_mflops + b.comp_mflops,
        )

    def run(self) -> list[RoundMetrics]:
        return [self.run_round() for _ in range(self.half_run.fed_cfg.rounds)]
