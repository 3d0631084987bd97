"""Round orchestration: local training, uplink, aggregation, downlink.

One round (``FederatedRun``) runs local steps on every device, draws one
fading gain per device to find its decode level (how many of its uplink
messages decode), rebuilds the global model from the decoded segments of
the (devices, P) stack, and broadcasts it back (the downlink is always
assumed successful).  SlimFL's uplink is two superposed width messages
decoded one after the other; a fixed-width FedAvg baseline's is one
message carrying its whole model.  Both run the same loop; only the widths
and decode thresholds differ.

Local training is device-batched (``LocalTraining``): all devices step
together as one (devices, P) stack, with results bitwise equal to training
each device alone.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .channel import ChannelConfig, Rayleigh, decode_levels, sample_fading, successive_thresholds
from .datasets import Dataset, Shard
from .metrics import RoundMetrics
from .slimnet import BatchRows, ForwardTrace, Layout, SlimmableParams, WidthMask, forward
from .training import STEP_FUNCTIONS, LocalOptimizer, TrainConfig

SCHEMES = ("slimfl", "vanilla-0.5x", "vanilla-1.0x", "vanilla-1.5x")


@dataclass(frozen=True)
class FederationConfig:
    n_devices: int = 10
    local_iters: int = 1
    scheme: str = "slimfl"
    aggregation_weighting: str = "empirical"  # "empirical" | "expected"
    vanilla_rate_mode: str = "payload_scaled"  # "payload_scaled" | "same_rate"
    # Accepted so that existing configs still parse, but selects nothing:
    # local training always runs device-batched (LocalTraining).
    parallel_devices: bool = False

    def validate(self) -> None:
        """Raise ValueError whose message starts with the offending field."""
        if self.n_devices < 1:
            raise ValueError("n_devices: must be >= 1")
        if self.local_iters < 1:
            raise ValueError("local_iters: must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme: unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.aggregation_weighting not in ("empirical", "expected"):
            raise ValueError(
                f"aggregation_weighting: unknown weighting {self.aggregation_weighting!r}"
            )
        if self.aggregation_weighting == "expected" and self.scheme != "slimfl":
            # a baseline averages one segment over its decoded devices; it has
            # no expected-count rule
            raise ValueError(
                f"aggregation_weighting: expected applies to scheme slimfl only, "
                f"not {self.scheme!r}"
            )
        if self.vanilla_rate_mode not in ("payload_scaled", "same_rate"):
            raise ValueError(f"vanilla_rate_mode: unknown mode {self.vanilla_rate_mode!r}")


def aggregate(
    global_values: np.ndarray,
    device_values: np.ndarray,
    levels: np.ndarray,
    first_bits: np.ndarray,
    divisors: Sequence[float] | None = None,
) -> np.ndarray:
    """Rebuild the global vector from the (devices, P) stack and each
    device's decode level (how many of its messages decoded).

    The first segment (``first_bits``) is averaged over every device at
    level >= 1, the rest over devices at level 2; a segment nobody
    delivered keeps its previous global value.  ``divisors`` replaces the
    realized counts of the two averages (expected-count weighting).
    """
    # the stack itself when every device is in: a row copy would be summed
    # and column-masked exactly as the stack is
    lowest = levels.min()
    decoded = device_values if lowest >= 1 else device_values[levels >= 1]
    if not len(decoded):
        return global_values.copy()
    full = device_values if lowest >= 2 else device_values[levels >= 2]
    div_first, div_rest = (len(decoded), len(full)) if divisors is None else divisors
    if first_bits.all():
        # one segment over every coordinate (a one-message uplink): the plain
        # FedAvg mean.  Sums the devices in order; a masked copy is laid out
        # column-major and summed pairwise, which differs in the last bits
        # from 8 devices on.
        return decoded.sum(axis=0) / div_first
    new = global_values.copy()
    new[first_bits] = decoded[:, first_bits].sum(axis=0) / div_first
    if len(full):
        new[~first_bits] = full[:, ~first_bits].sum(axis=0) / div_rest
    return new


def evaluate(params: SlimmableParams, masks, x: np.ndarray, y: np.ndarray) -> list[float]:
    """Top-1 accuracy of each width configuration, one per mask.

    ``masks`` must be nested and ascending: the widest, last, runs first and
    its layer 0 is every other width's (``forward``'s ``first``).
    """
    if len(y) == 0:
        raise ValueError("test set must be nonempty")
    trace = ForwardTrace()
    widest = forward(params, masks[-1], x, trace=trace)
    logits = [forward(params, mask, x, first=trace.preacts[0]) for mask in masks[:-1]]
    return [float((z.argmax(axis=1) == y).mean()) for z in (*logits, widest)]


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
        # trains from the given stack itself (the broadcast global vector
        # between rounds): the step rules only read it
        params = SlimmableParams(self.layout, np.asarray(start_values))
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


def vanilla_threshold(chan_cfg: ChannelConfig, payload_ratio: float) -> float:
    """Single-message decode threshold with the rate scaled to the payload.

    payload_ratio is the scheme's payload relative to one superposed message
    (the half-width model): 1.0 for a half-width upload, 2.0 for full-width.
    """
    u = chan_cfg.sinr_threshold_at(chan_cfg.rate_bps * payload_ratio)
    return float(
        successive_thresholds([chan_cfg.total_power_w], chan_cfg.effective_noise, u)[0]
    )


@dataclass(frozen=True, eq=False)
class Width:
    """One uplink message: the width configuration it completes and its costs."""

    mask: WidthMask
    column: str  # "half" | "full": the accuracy column this width fills
    bits: int  # payload delivered when this is the widest decoded message
    mflops: float  # local compute per step


# accuracy column -> its index in a round report's decode counts (0 is none)
COLUMNS = {"half": 1, "full": 2}


class FederatedRun:
    """One training run: local steps, uplink, aggregation, broadcast.

    Each device sends one message per width, in order, and the receiver
    decodes them one after the other: message i decodes when the device's
    fading draw reaches ``thresholds[i]``.  SlimFL sends two superposed
    widths; a fixed-width baseline sends one, the full mask of its own
    layout.  A device's decode level is how many of its messages decoded.
    Aggregation averages the first width's coordinates over every device at
    level >= 1 and the rest over devices at level 2.
    """

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
        widths: tuple[Width, ...],
        thresholds: np.ndarray,
        rounds: int,
        master_seed: int,
        stream_tag: tuple[str, ...] = (),
        eval_every: int = 1,
    ):
        train_cfg.validate()
        fed_cfg.validate()
        if len(thresholds) != len(widths):
            raise ValueError("need one decode threshold per width")
        expected = fed_cfg.aggregation_weighting == "expected"
        if expected and not isinstance(chan_cfg.fading, Rayleigh):
            raise ValueError("expected-count weighting needs closed-form (Rayleigh) probabilities")
        self.layout = layout
        self.test = test
        self.chan_cfg = chan_cfg
        self.fed_cfg = fed_cfg
        self.widths = widths
        # decode level -> the column its widest message fills, and the bits it delivers
        self.column_at_level = np.array([0, *(COLUMNS[w.column] for w in widths)])
        self.bits_at_level = np.array([0, *(w.bits for w in widths)])
        self.mflops = sum(w.mflops for w in widths) * fed_cfg.local_iters
        self.thresholds = np.asarray(thresholds, dtype=np.float64)
        # expected-count weighting divides by K * P(decode) under Rayleigh fading
        self.divisors = fed_cfg.n_devices * np.exp(-self.thresholds) if expected else None
        self.rounds = rounds
        self.eval_every = eval_every
        self.local = LocalTraining(
            layout=layout, train=train, shards=shards, train_cfg=train_cfg,
            batch_rngs=[
                rngmod.stream(master_seed, "batch", *stream_tag, k)
                for k in range(fed_cfg.n_devices)
            ],
            local_iters=fed_cfg.local_iters,
        )
        # device k's fading stream in round r is rng.stream(master_seed,
        # "fading", *stream_tag, k, r)
        self.fading_streams = rngmod.StreamFamily(
            master_seed, [("fading", *stream_tag, k) for k in range(fed_cfg.n_devices)]
        )
        self.global_values = init_values.copy()
        self.device_values = _broadcast(self.global_values, fed_cfg.n_devices)
        self.levels = np.zeros(fed_cfg.n_devices, dtype=np.intp)
        self.round = 0

    def decode_levels(self) -> np.ndarray:
        """Each device's decode level this round, from one fading draw."""
        chi = np.empty(self.fed_cfg.n_devices)
        for k, rng in enumerate(self.fading_streams.generators(self.round)):
            chi[k] = sample_fading(self.chan_cfg.fading, rng)
        return decode_levels(chi, self.thresholds)

    def run_round(self) -> RoundMetrics:
        self.round += 1
        self.device_values, losses = self.local.run(self.device_values)
        self.loss = float(np.mean(losses))

        self.levels = self.decode_levels()
        self.global_values = aggregate(
            self.global_values, self.device_values, self.levels, self.widths[0].mask.bits,
            self.divisors,
        )
        self.device_values = _broadcast(self.global_values, self.fed_cfg.n_devices)

        self.accuracies = [math.nan] * len(self.widths)
        if self.round % self.eval_every == 0:
            params = SlimmableParams(self.layout, self.global_values)
            masks = [w.mask for w in self.widths]
            self.accuracies = evaluate(params, masks, self.test.x, self.test.y)
        return report((self,))

    def run(self) -> list[RoundMetrics]:
        return [self.run_round() for _ in range(self.rounds)]


def report(runs: Sequence[FederatedRun]) -> RoundMetrics:
    """The round the given runs just took, as one metrics row.

    Each width's accuracy fills its column, and a device counts under the
    widest column any run decoded for it.  The loss is the runs' mean;
    decoded bits, power and compute add up run by run.
    """
    acc = [math.nan] * 3  # by column: none, half, full
    for run in runs:
        for width, accuracy in zip(run.widths, run.accuracies):
            acc[COLUMNS[width.column]] = accuracy
    widest = functools.reduce(np.maximum, [run.column_at_level[run.levels] for run in runs])
    none, half, full = np.bincount(widest, minlength=3).tolist()
    return RoundMetrics(
        round=runs[0].round, acc_half=acc[1], acc_full=acc[2],
        loss=sum(run.loss for run in runs) / len(runs),
        decoded_none=none, decoded_lh_only=half, decoded_both=full,
        decoded_megabits=sum(int(run.bits_at_level[run.levels].sum()) / 1e6 for run in runs),
        comm_power_mw=sum(run.chan_cfg.total_power_w * 1000.0 for run in runs),
        comp_mflops=sum(run.mflops for run in runs),
    )
