"""Width-slimmable dense networks stored as flat parameter vectors.

A network is a stack of dense layers with ReLU6 (clamp to [0, 6]) between
them and raw logits at the output.  A narrow configuration keeps the first
ceil(width * ratio) units of every hidden layer, while the raw input and
the logits stay whole, so each sub-width is nested inside the full-width
parameter vector and can be selected with a binary mask over the flat
storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: weight block (out_dim, in_dim) followed by bias (out_dim)."""

    in_dim: int
    out_dim: int
    slim_input: bool
    slim_output: bool

    @property
    def size(self) -> int:
        return self.out_dim * self.in_dim + self.out_dim


@dataclass(frozen=True)
class Layout:
    """A dense stack by its widths ``(in, *hidden, out)``, plus flat-vector offsets.

    Every hidden width slims with the ratio; the raw input and the logits
    stay whole.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) < 2 or min(self.dims) < 1:
            raise ValueError(f"layout needs at least two widths, each >= 1, got {self.dims}")

    @cached_property
    def layers(self) -> tuple[LayerSpec, ...]:
        last = len(self.dims) - 2
        return tuple(
            LayerSpec(a, b, slim_input=i > 0, slim_output=i < last)
            for i, (a, b) in enumerate(zip(self.dims, self.dims[1:]))
        )

    @cached_property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        """(weight_offset, bias_offset) of each layer into the flat vector."""
        out = []
        pos = 0
        for spec in self.layers:
            out.append((pos, pos + spec.out_dim * spec.in_dim))
            pos += spec.size
        return tuple(out)

    @cached_property
    def size(self) -> int:
        return sum(spec.size for spec in self.layers)

    @staticmethod
    def mlp(in_dim: int, hidden_dims: tuple[int, ...] | list[int], out_dim: int) -> "Layout":
        """Slimmable MLP: hidden widths shrink with the ratio, input/output stay whole."""
        return Layout((in_dim, *hidden_dims, out_dim))


@dataclass(frozen=True, eq=False)
class SlimmableParams:
    """Flat float64 parameter vector with its layout.

    ``values`` is one vector of ``layout.size`` or a (devices, layout.size)
    stack of them, one row per device.  Treated as immutable by
    forward/backward; updates go through the optimizer, which returns a
    fresh vector.
    """

    layout: Layout
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim not in (1, 2) or values.shape[-1] != self.layout.size:
            raise ValueError(
                f"parameter vector has shape {values.shape}, layout needs "
                f"({self.layout.size},) or a (devices, {self.layout.size}) stack"
            )
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray) -> "SlimmableParams":
        return SlimmableParams(self.layout, values)


@dataclass(frozen=True, eq=False)
class WidthMask:
    """Binary selector over the flat parameter vector for one width ratio."""

    ratio: float
    bits: np.ndarray

    @cached_property
    def full(self) -> bool:
        """Whether the mask keeps every coordinate."""
        return bool(self.bits.all())


def slim_width(width: int, ratio: float) -> int:
    """Kept units of a slimmable width at the given ratio: ceil(width * ratio)."""
    # small backoff so exact products like 10 * 0.1 do not round up a slot
    return max(1, math.ceil(width * ratio - 1e-9))


def active_dims(spec: LayerSpec, ratio: float) -> tuple[int, int]:
    """Kept (rows, cols) of a layer's weight block at the given width ratio."""
    rows = slim_width(spec.out_dim, ratio) if spec.slim_output else spec.out_dim
    cols = slim_width(spec.in_dim, ratio) if spec.slim_input else spec.in_dim
    return rows, cols


def build_mask(layout: Layout, ratio: float) -> WidthMask:
    """Mask keeping the first rows/columns of every slimmable dimension."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"width ratio must be in (0, 1], got {ratio}")
    bits = np.zeros(layout.size, dtype=bool)
    for spec, (w_off, b_off) in zip(layout.layers, layout.offsets):
        rows, cols = active_dims(spec, ratio)
        w_bits = bits[w_off:b_off].reshape(spec.out_dim, spec.in_dim)
        w_bits[:rows, :cols] = True
        bits[b_off : b_off + rows] = True
    return WidthMask(ratio=ratio, bits=bits)


def complement_bits(mask: WidthMask) -> np.ndarray:
    """Selector for everything outside the mask (the remaining segment)."""
    return ~mask.bits


@lru_cache(maxsize=None)
def masks_for(layout: Layout, ratios: tuple[float, ...]) -> tuple[WidthMask, ...]:
    return tuple(build_mask(layout, r) for r in ratios)


def _blocks(flat: np.ndarray, layout: Layout, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of layer ``index``'s weight block (..., out, in) and bias (..., out).

    ``flat`` is a flat vector or a stack of them; leading axes are kept.
    """
    spec = layout.layers[index]
    w_off, b_off = layout.offsets[index]
    lead = flat.shape[:-1]
    w = flat[..., w_off:b_off].reshape(lead + (spec.out_dim, spec.in_dim))
    return w, flat[..., b_off : b_off + spec.out_dim]


def _check_batch(params: SlimmableParams, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    lead = params.values.shape[:-1]
    in_dim = params.layout.dims[0]
    if batch.shape[:-2] != lead or batch.ndim != len(lead) + 2 or batch.shape[-1] != in_dim:
        devices = f" with a leading axis of {lead[0]} devices" if lead else ""
        raise ValueError(
            f"batch shape {batch.shape} does not match input dimension {in_dim}{devices}"
        )
    return batch


def _product(a: np.ndarray, b: np.ndarray, transpose: bool) -> np.ndarray:
    return a @ (np.swapaxes(b, -1, -2) if transpose else b)


class BatchRows:
    """The real rows of a device stack whose batches are padded to one length.

    Device k's batch holds ``counts[k]`` samples followed by padding rows
    of any finite data.  A BLAS matmul's result for one row depends on how
    many rows the matmul has, so every product over the batch rows is first
    taken over the whole stack and then redone, for the devices of each
    shorter count, over their real rows alone.  Losses average over the
    real rows, and logit gradients are exactly zero on the padding, so the
    bias gradients' plain sums over the batch equal the unpadded ones; the
    weight gradients' products are redone (``batch_sum``).  Device k's
    results are then bitwise those it gets with its batch alone.
    """

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.intp)
        width = int(counts.max())
        self.short = [
            (int(n), np.flatnonzero(counts == n)) for n in np.unique(counts) if n < width
        ]
        self._divisor = counts.astype(np.float64)[:, None, None]
        self._keep = (np.arange(width) < counts[:, None]).astype(np.float64)[..., None]

    def matmul(self, a: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``a @ b`` (``a @ b^T`` with ``transpose``) for a (devices, batch, n) ``a``."""
        out = _product(a, b, transpose)
        for n, devices in self.short:
            out[devices, :n] = _product(a[devices, :n], b[devices], transpose)
        return out

    def batch_sum(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """``g^T h`` over each device's real rows, for (devices, batch, .) arrays.

        ``g`` is zero on the padding, yet the BLAS may group the real terms
        of a sum over the rows by its length: a matrix-vector product (a
        layer one unit wide) does, and so does a matrix-matrix one over
        several hundred rows, which it splits into blocks.  So the shorter
        devices are redone.
        """
        out = np.swapaxes(g, -1, -2) @ h
        for n, devices in self.short:
            out[devices] = np.swapaxes(g[devices, :n], -1, -2) @ h[devices, :n]
        return out

    def mean(self, per_example: np.ndarray) -> np.ndarray:
        """Each device's mean over its real rows of a (devices, batch) array."""
        out = per_example.mean(axis=-1)
        for n, devices in self.short:
            out[devices] = per_example[devices, :n].mean(axis=-1)
        return out

    def per_example_grad(self, grad: np.ndarray) -> np.ndarray:
        """A (devices, batch, classes) gradient of summed losses divided by
        each device's count, zeroed on the padding, in place."""
        grad /= self._divisor
        grad *= self._keep
        return grad


def _matmul(rows: BatchRows | None, a: np.ndarray, b: np.ndarray, transpose: bool = False):
    return _product(a, b, transpose) if rows is None else rows.matmul(a, b, transpose)


def _batch_sum(rows: BatchRows | None, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    return np.swapaxes(g, -1, -2) @ h if rows is None else rows.batch_sum(g, h)


@dataclass(eq=False)
class ForwardTrace:
    """What a forward pass keeps so that its backward need not run it again:
    each layer's masked weights, its input and its pre-activation."""

    weights: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    preacts: list = field(default_factory=list)


def forward(
    params: SlimmableParams,
    mask: WidthMask,
    batch: np.ndarray,
    trace: ForwardTrace | None = None,
    rows: BatchRows | None = None,
) -> np.ndarray:
    """Logits of the masked network; equals the physically extracted sub-network.

    One vector takes a (batch, in) array; a (devices, P) stack takes
    (devices, batch, in) and returns (devices, batch, classes), device k
    computed exactly as it would be alone, over its first ``rows`` rows
    when the stack is padded.  A given ``trace`` is filled for a later
    ``backward`` on the same arguments.
    """
    h = _check_batch(params, batch)
    layout = params.layout
    n_layers = len(layout.layers)
    for i in range(n_layers):
        w_m, b_m = _blocks(params.values, layout, i)
        if not mask.full:  # under the full mask, the product would equal w and b bit for bit
            w_bits, b_bits = _blocks(mask.bits, layout, i)
            w_m, b_m = w_m * w_bits, b_m * b_bits
        z = _matmul(rows, h, w_m, transpose=True) + b_m[..., None, :]
        if trace is not None:
            trace.weights.append(w_m)
            trace.inputs.append(h)
            trace.preacts.append(z)
        h = np.clip(z, 0.0, 6.0) if i < n_layers - 1 else z
    return h


def backward(
    params: SlimmableParams,
    mask: WidthMask,
    batch: np.ndarray,
    logits_grad: np.ndarray,
    trace: ForwardTrace | None = None,
    rows: BatchRows | None = None,
) -> np.ndarray:
    """Gradient of the loss w.r.t. the flat vector, given d(loss)/d(logits).

    Shapes and ``rows`` follow ``forward``: a stack gives one gradient row
    per device, and a padded stack needs ``logits_grad`` zero on the padding.
    ``trace`` is the one ``forward`` filled for these arguments; without it
    the forward pass runs again.  Coordinates outside the mask receive
    exactly zero.
    """
    batch = _check_batch(params, batch)
    logits_grad = np.asarray(logits_grad, dtype=np.float64)
    layout = params.layout
    expected = batch.shape[:-1] + (layout.dims[-1],)
    if logits_grad.shape != expected:
        raise ValueError(
            f"logits gradient shape {logits_grad.shape} does not match {expected}"
        )
    if trace is None:
        trace = ForwardTrace()
        forward(params, mask, batch, trace, rows)
    # the layer blocks tile the vector, so every coordinate is written
    grad = np.empty(params.values.shape)
    g = logits_grad
    for i in reversed(range(len(layout.layers))):
        w_bits, b_bits = _blocks(mask.bits, layout, i)
        grad_w, grad_b = _blocks(grad, layout, i)
        np.multiply(_batch_sum(rows, g, trace.inputs[i]), w_bits, out=grad_w)
        np.multiply(g.sum(axis=-2), b_bits, out=grad_b)
        if i > 0:
            z = trace.preacts[i - 1]
            g = _matmul(rows, g, trace.weights[i]) * ((z > 0.0) & (z < 6.0))
    return grad


@dataclass(frozen=True)
class ModelCost:
    flops_per_image: int
    param_count: int
    bits_per_round: int


def model_cost(layout: Layout, mask: WidthMask, bits_per_param: float = 32.0) -> ModelCost:
    """Dense-layer multiply-add FLOPs plus one clamp per hidden activation."""
    flops = 0
    n_layers = len(layout.layers)
    for i, spec in enumerate(layout.layers):
        rows, cols = active_dims(spec, mask.ratio)
        flops += 2 * rows * cols
        if i < n_layers - 1:
            flops += rows
    param_count = int(mask.bits.sum())
    return ModelCost(
        flops_per_image=flops,
        param_count=param_count,
        bits_per_round=int(round(param_count * bits_per_param)),
    )


def init_params(layout: Layout, rng: np.random.Generator) -> SlimmableParams:
    """He-style normal init for the clamped activation; biases start at zero."""
    values = np.zeros(layout.size, dtype=np.float64)
    for spec, (w_off, b_off) in zip(layout.layers, layout.offsets):
        scale = math.sqrt(2.0 / spec.in_dim)
        values[w_off:b_off] = rng.normal(0.0, scale, size=spec.out_dim * spec.in_dim)
    return SlimmableParams(layout, values)
