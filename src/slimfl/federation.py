"""Round orchestration: local training, uplink, aggregation, downlink.

One round (``FederatedRun``) runs local steps on every device, draws one
fading gain per device to find its decode level (how many of its uplink
messages decode), rebuilds the global model from the decoded segments of
the (devices, P) stack, and broadcasts it back (the downlink is always
assumed successful).  SlimFL's uplink is two superposed width messages
decoded one after the other; a fixed-width FedAvg baseline's is one
message carrying its whole model.  Both run the same loop; only the widths
and decode thresholds differ.

Each device's round is ``LocalTraining``'s: one draw of the round's inputs
(``_fill``: the device's batches and its fading gain), then its local
steps.  Every device starts from the one global vector, and all devices
step together as one (devices, P) stack, with results bitwise equal to
training each device alone.  A large stack is split into contiguous parts
(``_DevicePool``), the process running the first part's round and one
forked worker each other part's, each part a ``LocalTraining`` drawing its
own devices' inputs.

A scheme's round loop is one ``Federation``, over its one run or, for
``vanilla-1.5x``, the half- and full-width baselines side by side.  It is
the only code that forks, feeds and closes helper processes.  At the first
round, before anything forks, it takes the loop's one ``engine.plan``,
puts a ``_DevicePool`` in place of each run's engine whose plan has more
than one part, and then forks its one spare-CPU helper if the plan says
so, when every stack trains in one process.  The helper draws every run's
inputs two rounds ahead and evaluates every run's global model two rounds
behind while the process trains, each round in a slot of shared arrays
keyed by the round.  Every forked process is a plain ``engine.Helper`` in
``Federation.helpers``, which ``close`` walks, and every accuracy, inline
or from the helper, goes into ``Federation.evaluated``.  It reports the
runs as one metrics row a round.  Every output byte is the same on each
engine.

A round whose device loss or aggregated global vector is not finite raises
``ValueError`` naming the round and the devices (and width) at fault.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import engine
from . import rng as rngmod
from .channel import ChannelConfig, FadingModel, decode_levels, decode_probabilities
from .channel import sample_fading, successive_thresholds
from .datasets import Dataset, Shard
from .engine import Helper, shared
from .metrics import RoundMetrics
from .slimnet import BatchRows, ForwardTrace, Layout, SlimmableParams, WidthMask, forward
from .training import STEP_FUNCTIONS, LocalOptimizer, TrainConfig

SCHEMES = ("slimfl", "vanilla-0.5x", "vanilla-1.0x", "vanilla-1.5x")

# a local round's result: the trained (devices, P) stack, each device's loss
# at its last step, and each device's fading gain
LocalRound = tuple[np.ndarray, np.ndarray, np.ndarray]


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

    def __post_init__(self) -> None:
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
        # FedAvg mean, summing the devices in order
        return decoded.sum(axis=0) / div_first
    new = global_values.copy()
    sums = _pairwise_sums(decoded)
    new[first_bits] = sums[first_bits] / div_first
    if len(full):
        if lowest < 2:
            sums = _pairwise_sums(full)
        new[~first_bits] = sums[~first_bits] / div_rest
    return new


def _pairwise_sums(rows: np.ndarray) -> np.ndarray:
    """Each column's sum over the (n, w) ``rows``, with the bytes of
    numpy's pairwise sum of that column as one contiguous array (what a
    segment's column-major copy, ``rows[:, bits]``, sums to): a run of over
    128 is split in two at a multiple of 8 below its half, and a shorter
    one of 8 or more is summed in 8 interleaved partial sums, added in
    pairs, then the rest in order.  Every sum starts from +0.0, as numpy's
    do, so a column of -0.0s sums to +0.0 at any length; only a NaN's sign
    can differ.  Computed row by row on every column at once, with no copy
    of the columns: x2.4-3 faster."""
    n = len(rows)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sums(rows[:half]) + _pairwise_sums(rows[half:])
    total = np.zeros(rows.shape[1:])
    if n >= 8:
        # the 8 partial sums, each over its rows in order
        stop = n - n % 8
        r = rows[:stop].reshape(-1, 8, rows.shape[1]).sum(axis=0)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rows = rows[stop:]
    for row in rows:
        total += row
    return total


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


class LocalTraining:
    """Each device's round: its batches and fading gain, drawn into a
    record of the round's inputs, then its local steps, one stacked step
    rule call per step.

    All devices start from the global vector and train as one (devices, P)
    stack with one stacked optimizer.
    A device whose shard is smaller than the batch size draws its whole
    shard, min(batch_size, len(shard)) samples, and its batch is padded to
    the longest (``BatchRows``).  Each device draws its batches and its
    fading gains from its own streams, and the step rules compute each row
    exactly as for one device, so every device's result is the one it gets
    trained alone.

    For the same reason a stack can run its round as contiguous parts, each
    its own stack (``part``).  ``_fill`` is the one draw of a round on every
    engine, into a record of the arrays declared once in ``inputs``:
    ``run`` trains from a record it is handed (filled in its loop's helper)
    or fills a new one itself, as each part does.  It forks nothing: every
    process runs this engine, and its loop's ``Federation`` puts a
    ``_DevicePool`` in its place to split it.
    """

    parts = 1  # the processes that train the stack, as a _DevicePool counts them

    def __init__(
        self,
        *,
        layout: Layout,
        train: Dataset,
        shards: list[Shard],
        train_cfg: TrainConfig,
        batch_rngs: list[np.random.Generator],
        fading: FadingModel,
        fading_streams: rngmod.StreamFamily,
        local_iters: int,
    ):
        self.layout = layout
        self.train = train
        self.shards = shards
        self.train_cfg = train_cfg
        self.batch_rngs = batch_rngs
        self.fading = fading
        self.fading_streams = fading_streams
        self.local_iters = local_iters
        self.step_fn = STEP_FUNCTIONS[train_cfg.algorithm]
        self.sizes = [min(train_cfg.batch_size, len(shard)) for shard in shards]
        width = max(self.sizes)
        self.rows = BatchRows(self.sizes) if min(self.sizes) < width else None
        # padding rows hold training sample 0; the step rules ignore them
        self.batch_idx = np.zeros((len(shards), width), dtype=np.intp)
        # a round's inputs, name=(shape, dtype): each local step's x and y
        # rows, and each device's fading gain
        steps = (local_iters, len(shards), width)
        self.inputs = dict(
            x=((*steps, *train.x.shape[1:]), train.x.dtype), y=(steps, train.y.dtype),
            chi=((len(shards),), np.float64),
        )
        self.opt = LocalOptimizer(train_cfg, (len(shards), layout.size))

    def run(self, global_values: np.ndarray, round_: int, drawn=None) -> LocalRound:
        """Round ``round_`` of every device: ``local_iters`` steps from the
        (P,) global vector, and its fading gain, on the inputs of the filled
        record ``drawn`` or, if None, of the round's own draw.

        Returns the trained vectors as a (devices, P) stack, each device's
        loss at its last step and its fading gain.  The gains of a handed
        record are a shared buffer that a later round overwrites.
        """
        _check_start(global_values, self.layout.size)
        if drawn is None:
            drawn = engine.record(np.empty, **self.inputs)
            self._fill(drawn, round_)
        return (*self._train(global_values, drawn), drawn.chi)

    def part(self, lo: int, hi: int) -> "LocalTraining":
        """The engine of devices ``lo:hi`` alone, with their streams."""
        streams = self.fading_streams
        return LocalTraining(
            layout=self.layout, train=self.train, shards=self.shards[lo:hi],
            train_cfg=self.train_cfg, batch_rngs=self.batch_rngs[lo:hi], fading=self.fading,
            fading_streams=rngmod.StreamFamily(streams.master_seed, streams.prefixes[lo:hi]),
            local_iters=self.local_iters,
        )

    def _fill(self, drawn, round_: int) -> None:
        """Round ``round_``'s inputs, into the record ``drawn`` (this
        process's, or a helper slot's): each local step's (devices, batch,
        ...) x and y rows, each device's batch drawn from its own stream,
        then each device's fading gain, from its stream for the round."""
        batch_idx = self.batch_idx
        for step in range(self.local_iters):
            for k, (rng, shard, size) in enumerate(zip(self.batch_rngs, self.shards, self.sizes)):
                batch_idx[k, :size] = rng.choice(shard.indices, size=size, replace=False)
            # a plain gather: a shard index past the training set raises here
            drawn.x[step], drawn.y[step] = self.train.x[batch_idx], self.train.y[batch_idx]
        for k, rng in enumerate(self.fading_streams.generators(round_)):
            drawn.chi[k] = sample_fading(self.fading, rng)

    def _train(self, global_values: np.ndarray, drawn) -> tuple[np.ndarray, np.ndarray]:
        """The local steps of every device of this engine, on the batches of
        the filled record ``drawn``."""
        # each device starts from a read-only view of the one vector: no copies
        start = np.broadcast_to(global_values, (len(self.shards), self.layout.size))
        params = SlimmableParams(self.layout, start)
        # a diverging step's overflow is reported by the run's finite checks
        with np.errstate(over="ignore", invalid="ignore"):
            for x, y in zip(drawn.x, drawn.y):
                result = self.step_fn(params, x, y, self.train_cfg, self.opt, rows=self.rows)
                params = result.params
        return params.values, result.loss


def _check_start(global_values: np.ndarray, size: int) -> None:
    """Refuse a start that is not one (``size``,) global vector."""
    if np.shape(global_values) != (size,):
        raise ValueError(
            f"local training starts from one ({size},) global vector, "
            f"not an array of shape {np.shape(global_values)}"
        )


class _DevicePool:
    """``local``'s stack split into ``parts`` contiguous parts: the process
    trains the first, and one forked worker, spinning (``spin``) or
    blocking, each other part.  Each part is a ``LocalTraining`` of its
    devices that owns their shards, streams and optimizer rows for the rest
    of the run.

    Each round the process writes the global vector into ``start`` and asks
    every worker for the round; each worker runs its part's round from it
    and writes its rows of ``out``, ``losses`` and ``chi``, while the
    process runs the first part's.  Its ``Federation`` forks it and closes
    its ``workers``, after which it runs no round.
    """

    def __init__(self, local: LocalTraining, parts: int, spin: bool):
        # Kept, though only its layout is read again: letting the whole-stack
        # engine be freed after the fork (its untouched (devices, P) Adam
        # moments among it) raised fanout's peak_rss_mb to 69.4-69.8 MB in 5
        # of 5 8-s runs, against 67.7-67.9 in 4 of 5 runs keeping it (2
        # vCPUs).  The cause is not known.
        self.local = local
        self.parts = parts
        n = len(local.shards)
        self.bounds = [i * n // parts for i in range(parts + 1)]
        self.start = shared((local.layout.size,))
        self.out = shared((n, local.layout.size))
        self.losses = shared((n,))
        self.chi = shared((n,))
        self.head = local.part(0, self.bounds[1])
        self.workers = [
            Helper(
                "worker", f"local training of devices {lo}-{hi - 1}",
                functools.partial(self._run, local.part(lo, hi), lo, hi), spin=spin,
            )
            for lo, hi in zip(self.bounds[1:-1], self.bounds[2:])
        ]

    def _run(self, part: LocalTraining, lo: int, hi: int, round_: int) -> None:
        self.out[lo:hi], self.losses[lo:hi], self.chi[lo:hi] = part.run(self.start, round_)

    def run(self, global_values: np.ndarray, round_: int, drawn=None) -> LocalRound:
        """``LocalTraining.run`` over the parts.  Each part draws its own
        inputs (a split loop forks no helper to hand a record), and the
        trained vectors are a shared buffer that a later round overwrites."""
        _check_start(global_values, self.local.layout.size)
        self.start[:] = global_values
        for worker in self.workers:
            worker.ask(round_)
        try:
            self._run(self.head, 0, self.bounds[1], round_)
        finally:
            # every answer is read, so the pipes stay in step after an error
            errors = [worker.answer(round_) for worker in self.workers]
        for error in filter(None, errors):
            raise error
        return self.out, self.losses.copy(), self.chi.copy()


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

    Each device's round, its local steps and its fading draw, is
    ``local``'s: a ``LocalTraining``, or the ``_DevicePool`` that its
    ``Federation`` puts in its place to split the stack.
    """

    def __init__(
        self,
        *,
        layout: Layout,
        init_values: np.ndarray,
        train: Dataset,
        shards: list[Shard],
        train_cfg: TrainConfig,
        chan_cfg: ChannelConfig,
        fed_cfg: FederationConfig,
        widths: tuple[Width, ...],
        thresholds: np.ndarray,
        master_seed: int,
        stream_tag: tuple[str, ...] = (),
    ):
        if len(thresholds) != len(widths):
            raise ValueError("need one decode threshold per width")
        self.layout = layout
        self.chan_cfg = chan_cfg
        self.widths = widths
        self.masks = [w.mask for w in widths]
        # decode level -> the column its widest message fills, and the bits it delivers
        self.column_at_level = np.array([0, *(COLUMNS[w.column] for w in widths)])
        self.bits_at_level = np.array([0, *(w.bits for w in widths)])
        self.mflops = sum(w.mflops for w in widths) * fed_cfg.local_iters
        self.thresholds = np.asarray(thresholds, dtype=np.float64)
        devices = range(len(shards))  # one per shard, whatever fed_cfg.n_devices says
        # expected-count weighting divides by K * P(decode)
        expected = fed_cfg.aggregation_weighting == "expected"
        self.divisors = len(devices) * decode_probabilities(chan_cfg) if expected else None
        self.local: LocalTraining | _DevicePool = LocalTraining(
            layout=layout, train=train, shards=shards, train_cfg=train_cfg,
            batch_rngs=[rngmod.stream(master_seed, "batch", *stream_tag, k) for k in devices],
            fading=chan_cfg.fading,
            # device k's fading stream in round r is rng.stream(master_seed,
            # "fading", *stream_tag, k, r)
            fading_streams=rngmod.StreamFamily(
                master_seed, [("fading", *stream_tag, k) for k in devices]
            ),
            local_iters=fed_cfg.local_iters,
        )
        self.global_values = init_values.copy()
        self.levels = np.zeros(len(devices), dtype=np.intp)
        self.round = 0

    def decode_levels(self, chi: np.ndarray) -> np.ndarray:
        """Each device's decode level this round, from its fading gain."""
        return decode_levels(chi, self.thresholds)

    def run_round(self, drawn=None) -> None:
        """The next round: its ``loss``, decode ``levels`` and global vector;
        its inputs are the filled record ``drawn``, if given."""
        self.round += 1
        trained, losses, chi = self.local.run(self.global_values, self.round, drawn)
        if not np.isfinite(losses).all():
            raise ValueError(
                f"round {self.round}: the local loss of device(s) "
                f"{_ids(~np.isfinite(losses))} is not finite"
            )
        self.levels = self.decode_levels(chi)

        # a diverging round's overflow is reported by the finite check below
        with np.errstate(over="ignore", invalid="ignore"):
            self.loss = float(np.mean(losses))
            self.global_values = aggregate(
                self.global_values, trained, self.levels, self.widths[0].mask.bits,
                self.divisors,
            )
        if not np.isfinite(self.global_values).all():
            self._raise_non_finite(trained)

    def _raise_non_finite(self, trained: np.ndarray) -> None:
        """Name the first width segment of the global vector that is not
        finite, and the devices that delivered non-finite values there (or
        every device that delivered it, when their finite average overflowed)."""
        first = self.widths[0].mask.bits
        for level, (width, segment) in enumerate(zip(self.widths, (first, ~first)), 1):
            bad = np.count_nonzero(~np.isfinite(self.global_values[segment]))
            if not bad:
                continue
            delivered = self.levels >= level
            culprits = delivered & ~np.isfinite(trained[:, segment]).all(axis=1)
            cause = (
                f"device(s) {_ids(culprits)} delivered non-finite values there"
                if culprits.any()
                else f"the finite values of device(s) {_ids(delivered)} overflowed their average"
            )
            raise ValueError(
                f"round {self.round}: {bad} coordinates of the global model's "
                f"{width.column}-width segment are not finite; {cause}"
            )


class Federation:
    """One scheme's round loop of ``rounds`` rounds over its runs: one
    ``FederatedRun``, or the ``vanilla-1.5x`` pair of baselines, reported
    as one metrics row a round.  It is the only code that forks, feeds and
    closes helper processes, and every accuracy goes through it.

    At the first round, before anything forks, it takes the loop's one
    ``engine.plan`` as ``plan``.  Each run whose plan has more than one part
    gets a ``_DevicePool`` in place of its ``local`` engine, its workers
    spinning or blocking as the plan says.  ``run_round`` runs each run's
    round and reports them as one row: a device counts under the widest
    column any run decoded for it, the loss is the runs' mean, and decoded
    bits, power and compute add up run by run.  Every ``eval_every``-th
    round each width's accuracy on ``test`` goes into ``evaluated``, by
    round, and the row holds NaN accuracies.  A round past ``rounds`` is
    refused before anything trains, and so is every round after one that
    raised.

    When the plan spares a CPU, the loop forks one background ``helper``
    over two ``slots`` of shared arrays: round r's is ``slots[r % 2]``, in
    the process and in the helper alike.  A slot holds one record per run,
    of its round inputs and its global vector, and the runs' accuracies.
    The helper is asked for rounds 1 and 2 at the start, and for round
    r + 2 once round r has trained, up to the loop's last round: so at most
    two rounds are pending, and a round's slot is the process's from its
    answer to its ask of r + 2.  When round r is evaluated, and is not one
    of the last two, the process writes round r's global vectors into its
    slot before that ask, and the helper evaluates them after it draws; the
    process reads their accuracies at round r + 2.  Every other evaluated
    round is evaluated inline.  The split stacks' workers and the helper
    are ``helpers``, which ``close`` stops and reaps.
    ``run`` drives every round through ``self.run_round``, so a wrapper set
    on the instance (a round timer) sees every round, and fills each row
    from ``evaluated``.
    """

    def __init__(
        self, runs: Sequence[FederatedRun], test: Dataset, rounds: int, eval_every: int = 1
    ):
        self.runs = tuple(runs)
        self.rounds = rounds
        if eval_every <= rounds and not len(test):  # found before any round trains
            raise ValueError("test set must be nonempty")
        self.test = test
        self.eval_every = eval_every
        # the metrics field of each run's widths' accuracies, in evaluation order
        self.columns = [f"acc_{width.column}" for run in self.runs for width in run.widths]
        self.plan: engine.Plan | None = None  # taken at the first round
        self.helper: Helper | None = None
        self.slots: list = []  # the helper's: round r's (records, accuracies) is slots[r % 2]
        self.helpers: list[Helper] = []  # every process the loop forked
        self.evaluated: dict[int, list[float]] = {}  # each evaluated round's accuracies
        self.stopped = 0  # the round that raised, once one has

    def run_round(self) -> RoundMetrics:
        runs, round_ = self.runs, self.runs[0].round + 1
        if self.stopped:
            raise ValueError(f"round {round_}: the round loop stopped at round {self.stopped}")
        if round_ > self.rounds:
            raise ValueError(f"round {round_}: the round loop has only {self.rounds} rounds")
        self.stopped = round_  # until the round is done
        if round_ == 1:
            self._start()
        drawn = [None] * len(runs)
        if self.helper is not None:
            error = self.helper.answer(round_)
            if error is not None:
                raise error
            drawn, accuracies = self.slots[round_ % 2]
            if self._ahead(round_ - 2):
                self.evaluated[round_ - 2] = accuracies.tolist()
        for run, inputs in zip(runs, drawn):
            run.run_round(inputs)
        if round_ % self.eval_every == 0 and not self._ahead(round_):
            self.evaluated[round_] = self._accuracies([run.global_values for run in runs])
        if self.helper is not None and round_ + 2 <= self.rounds:
            if self._ahead(round_):
                for run, record in zip(runs, drawn):
                    record.vector[:] = run.global_values
            self.helper.ask(round_ + 2)
        self.stopped = 0
        widest = functools.reduce(np.maximum, [run.column_at_level[run.levels] for run in runs])
        none, half, full = np.bincount(widest, minlength=3).tolist()
        return RoundMetrics(
            round=round_, acc_half=math.nan, acc_full=math.nan,  # filled by run()
            loss=sum(run.loss for run in runs) / len(runs),
            decoded_none=none, decoded_lh_only=half, decoded_both=full,
            decoded_megabits=sum(int(run.bits_at_level[run.levels].sum()) / 1e6 for run in runs),
            comm_power_mw=sum(run.chan_cfg.total_power_w * 1000.0 for run in runs),
            comp_mflops=sum(run.mflops for run in runs),
        )

    def _start(self) -> None:
        """Take the loop's plan, split each run's stack into its parts, then
        fork the helper over its two slots if the plan says so and ask it
        for rounds 1 and 2."""
        runs = self.runs
        self.plan = engine.plan([len(run.local.shards) for run in runs])
        for run, parts in zip(runs, self.plan.parts):
            if parts > 1:
                run.local = _DevicePool(run.local, parts, self.plan.spin)
                self.helpers += run.local.workers
        if self.plan.helper:
            self.slots = [(
                [engine.record(shared, vector=((run.layout.size,), np.float64), **run.local.inputs)
                 for run in runs],
                shared((len(self.columns),)),
            ) for _ in range(2)]
            self.helper = Helper(
                "helper", "drawing the batches and fading gains and evaluating the global "
                "models of two rounds before", self._serve, background=True,
            )
            self.helpers.append(self.helper)
            for round_ in range(1, min(2, self.rounds) + 1):
                self.helper.ask(round_)

    def _ahead(self, round_: int) -> bool:
        """Whether round ``round_`` is evaluated in the helper, as it draws
        round ``round_ + 2``."""
        return (
            self.plan.helper and 0 < round_ <= self.rounds - 2 and round_ % self.eval_every == 0
        )

    def _serve(self, round_: int) -> None:
        """The helper's job: every run's inputs for round ``round_`` into
        its slot, then, if the loop evaluates round ``round_ - 2`` ahead, the
        accuracies of the global vectors there.  It reads ``plan``:
        ``helper`` is None in its fork-time copy."""
        records, accuracies = self.slots[round_ % 2]
        for run, drawn in zip(self.runs, records):
            run.local._fill(drawn, round_)
        if self._ahead(round_ - 2):
            accuracies[:] = self._accuracies([drawn.vector for drawn in records])

    def _accuracies(self, vectors) -> list[float]:
        """Each run's widths' accuracies, from its global vector in ``vectors``."""
        x, y = self.test.x, self.test.y
        return [
            accuracy for run, vector in zip(self.runs, vectors)
            for accuracy in evaluate(SlimmableParams(run.layout, vector), run.masks, x, y)
        ]

    def close(self) -> list[int | None]:
        """Stop and reap every process the loop forked: the wait status of
        each, or None for one reaped before."""
        return [helper.close() for helper in self.helpers]

    def run(self) -> list[RoundMetrics]:
        """Every round's metrics row, each evaluated round's accuracies in it.
        A helper that did not exit cleanly once every round is done (it died
        after its last answer) fails the run, named for the last round."""
        try:
            rows = [self.run_round() for _ in range(self.rounds)]
        finally:
            statuses = self.close()
        for helper, status in zip(self.helpers, statuses):
            if status:
                raise helper.ended(self.rounds, status)
        filled = {r: dict(zip(self.columns, acc)) for r, acc in self.evaluated.items()}
        return [dataclasses.replace(row, **filled.get(row.round, {})) for row in rows]


def _ids(flags: np.ndarray) -> str:
    """The indices where ``flags`` is set, as a comma-separated list."""
    return ", ".join(map(str, np.flatnonzero(flags)))

