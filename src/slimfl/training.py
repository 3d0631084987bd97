"""Local training for slimmable networks.

Three single-batch update rules are provided.  Each takes one device's
parameter vector and batch, or a (devices, P) stack of vectors with
(devices, batch, ...) batches, and then steps every device at once with
stacked matmuls; device k's result is bitwise the one it gets alone.  In a
stack whose devices draw batches of different sizes, each batch is padded
to the longest and ``slimnet.BatchRows`` says which rows are real.
Each width is forwarded once per step and its trace reused by its backward.

* superposed_step — one optimizer step whose gradient is a convex
  combination of the full-width cross-entropy and per-sub-width
  distillation losses against the detached full-width logits.
* widthwise_step — every width trained against the ground truth,
  gradients summed, one optimizer step (the classic multi-width baseline).
* sandwich_step — full width against ground truth, then the smallest
  width plus randomly sampled intermediate widths distilled from the
  detached full-width logits, gradients summed unweighted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .slimnet import BatchRows, ForwardTrace, SlimmableParams, backward, forward, masks_for


def decayed_lr(strong_convexity: float, smoothness: float, t: int) -> float:
    """Step-size schedule 2 / (mu*t + 2L - mu); equals 1/L at t = 1."""
    return 2.0 / (strong_convexity * t + 2.0 * smoothness - strong_convexity)


@dataclass(frozen=True)
class TrainConfig:
    st_weights: tuple[float, ...] = (0.5, 0.5)
    width_ratios: tuple[float, ...] = (0.5, 1.0)
    lr: float = 1e-3
    lr_mode: str = "constant"  # "constant" | "strongly_convex"
    strong_convexity: float = 1.0
    smoothness: float = 1.0
    optimizer: str = "adam"  # "adam" | "sgd"
    batch_size: int = 64
    algorithm: str = "superposed"  # "superposed" | "widthwise" | "sandwich"

    def validate(self) -> None:
        """Raise ValueError whose message starts with the offending field."""
        if len(self.st_weights) != len(self.width_ratios):
            raise ValueError("st_weights: need one weight per entry of width_ratios")
        if any(w <= 0 for w in self.st_weights):
            raise ValueError("st_weights: must all be positive")
        if abs(sum(self.st_weights) - 1.0) > 1e-9:
            raise ValueError(f"st_weights: must sum to 1, got {sum(self.st_weights)}")
        if list(self.width_ratios) != sorted(self.width_ratios):
            raise ValueError("width_ratios: must be ascending")
        if abs(self.width_ratios[-1] - 1.0) > 1e-12:
            raise ValueError("width_ratios: must end with 1.0")
        if any(not 0.0 < r <= 1.0 for r in self.width_ratios):
            raise ValueError("width_ratios: must lie in (0, 1]")
        if self.lr <= 0:
            raise ValueError("lr: must be positive")
        if self.lr_mode not in ("constant", "strongly_convex"):
            raise ValueError(f"lr_mode: unknown mode {self.lr_mode!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer: unknown optimizer {self.optimizer!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size: must be >= 1")
        if self.algorithm not in ("superposed", "widthwise", "sandwich"):
            raise ValueError(f"algorithm: unknown algorithm {self.algorithm!r}")

    def learning_rate(self, t: int) -> float:
        if self.lr_mode == "strongly_convex":
            return decayed_lr(self.strong_convexity, self.smoothness, t)
        return self.lr


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _check_labels(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-1]:
        raise ValueError(f"labels shape {labels.shape} does not match batch {logits.shape[:-1]}")
    if labels.min() < 0 or labels.max() >= logits.shape[-1]:
        raise ValueError("label index out of range")
    return labels


def _batch_mean(per_example: np.ndarray, rows: BatchRows | None) -> float | np.ndarray:
    """Mean over the batch axis: a float for one device, one per device for a stack."""
    if rows is not None:
        return rows.mean(per_example)
    mean = per_example.mean(axis=-1)
    return float(mean) if mean.ndim == 0 else mean


def _per_example_grad(grad: np.ndarray, rows: BatchRows | None) -> np.ndarray:
    """A summed loss's logit gradient divided by the batch size: the mean's."""
    if rows is not None:
        return rows.per_example_grad(grad)
    grad /= grad.shape[-2]
    return grad


def cross_entropy(
    logits: np.ndarray, labels: np.ndarray, rows: BatchRows | None = None
) -> float | np.ndarray:
    """Mean negative log-likelihood of the true classes."""
    labels = _check_labels(logits, labels)
    ls = log_softmax(logits)
    return -_batch_mean(np.take_along_axis(ls, labels[..., None], axis=-1)[..., 0], rows)


def cross_entropy_grad(
    logits: np.ndarray, labels: np.ndarray, rows: BatchRows | None = None
) -> np.ndarray:
    labels = _check_labels(logits, labels)
    g = softmax(logits)
    true_class = labels[..., None]
    np.put_along_axis(g, true_class, np.take_along_axis(g, true_class, axis=-1) - 1.0, axis=-1)
    return _per_example_grad(g, rows)


def ipkd_loss(
    student_logits: np.ndarray, teacher_logits: np.ndarray, rows: BatchRows | None = None
) -> float | np.ndarray:
    """Soft cross-entropy of the student against the teacher's softmax.

    The teacher side is treated as a constant: no gradient flows into it.
    """
    if student_logits.shape != teacher_logits.shape:
        raise ValueError(
            f"student shape {student_logits.shape} != teacher shape {teacher_logits.shape}"
        )
    soft_targets = softmax(teacher_logits)
    return -_batch_mean((soft_targets * log_softmax(student_logits)).sum(axis=-1), rows)


def ipkd_grad(
    student_logits: np.ndarray, teacher_logits: np.ndarray, rows: BatchRows | None = None
) -> np.ndarray:
    """d(ipkd_loss)/d(student_logits); the teacher contributes none."""
    return _per_example_grad(softmax(student_logits) - softmax(teacher_logits), rows)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def sgd_update(values: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    step = np.multiply(grad, lr)
    return np.subtract(values, step, out=step)


def adam_update(
    state: AdamState,
    values: np.ndarray,
    grad: np.ndarray,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> np.ndarray:
    """Bias-corrected moment update; mutates state, returns the new vector.

    The moments are updated in place and the step is built in two work
    arrays, one of which becomes the result; each element sees the same
    operations in the same order as the textbook expressions.
    """
    state.t += 1
    step = np.multiply(grad, 1.0 - beta1)
    state.m *= beta1
    state.m += step  # m = beta1 * m + (1 - beta1) * g
    np.multiply(grad, 1.0 - beta2, out=step)
    step *= grad
    state.v *= beta2
    state.v += step  # v = beta2 * v + (1 - beta2) * g * g
    np.divide(state.m, 1.0 - beta1**state.t, out=step)
    step *= lr  # lr * m_hat
    denom = np.divide(state.v, 1.0 - beta2**state.t)
    np.sqrt(denom, out=denom)
    denom += eps  # sqrt(v_hat) + eps
    step /= denom
    return np.subtract(values, step, out=step)


class LocalOptimizer:
    """Optimizer of one device, or of a stack of devices stepping together.

    Owns the step counter and the Adam moments, shaped like the parameters:
    ``shape`` is ``P`` for one vector or ``(devices, P)`` for a stack.
    """

    def __init__(self, cfg: TrainConfig, shape: int | tuple[int, int]):
        self.cfg = cfg
        self.t = 0
        self.adam = AdamState(m=np.zeros(shape), v=np.zeros(shape))

    def apply(self, values: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        lr = self.cfg.learning_rate(self.t)
        if self.cfg.optimizer == "sgd":
            return sgd_update(values, grad, lr)
        return adam_update(self.adam, values, grad, lr)


@dataclass(frozen=True)
class LossReport:
    """Per-step losses: full-width cross-entropy, per-sub-width distillation,
    and the convex combination actually descended (per device for a stack)."""

    ce_full: float | np.ndarray
    kd_losses: tuple
    combined: float | np.ndarray


@dataclass(frozen=True, eq=False)
class StepResult:
    params: SlimmableParams
    gradient: np.ndarray
    loss: float | np.ndarray
    report: LossReport | None = None


def _width_pass(params, mask, batch_x, loss_fn, grad_fn, target, rows):
    """Logits, loss and parameter gradient of one width; the forward trace
    is reused by the backward and dropped on return."""
    trace = ForwardTrace()
    logits = forward(params, mask, batch_x, trace=trace, rows=rows)
    loss = loss_fn(logits, target, rows)
    return logits, loss, backward(
        params, mask, batch_x, grad_fn(logits, target, rows), trace=trace, rows=rows
    )


def superposed_step(
    params: SlimmableParams,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    cfg: TrainConfig,
    opt: LocalOptimizer,
    rows: BatchRows | None = None,
) -> StepResult:
    """One convex-combination update over all widths.

    The full-width pass is computed once and reused both for the ground-truth
    loss and, detached, as the distillation teacher for every sub-width.
    """
    masks = masks_for(params.layout, cfg.width_ratios)
    w = cfg.st_weights

    teacher_logits, ce, grad = _width_pass(
        params, masks[-1], batch_x, cross_entropy, cross_entropy_grad, batch_y, rows
    )
    grad *= w[-1]

    kd = []
    for i, mask in enumerate(masks[:-1]):
        _, loss, part = _width_pass(
            params, mask, batch_x, ipkd_loss, ipkd_grad, teacher_logits, rows
        )
        kd.append(loss)
        part *= w[i]
        grad += part

    combined = w[-1] * ce + sum(wi * k for wi, k in zip(w, kd))
    new_values = opt.apply(params.values, grad)
    return StepResult(
        params=params.with_values(new_values),
        gradient=grad,
        loss=combined,
        report=LossReport(ce_full=ce, kd_losses=tuple(kd), combined=combined),
    )


def widthwise_step(
    params: SlimmableParams,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    cfg: TrainConfig,
    opt: LocalOptimizer,
    rows: BatchRows | None = None,
) -> StepResult:
    """Every width trained against the ground truth, widest first; one step."""
    masks = masks_for(params.layout, cfg.width_ratios)
    grad = np.zeros(params.values.shape)
    total = 0.0
    for mask in reversed(masks):
        _, loss, part = _width_pass(
            params, mask, batch_x, cross_entropy, cross_entropy_grad, batch_y, rows
        )
        total += loss
        grad += part
    new_values = opt.apply(params.values, grad)
    return StepResult(params=params.with_values(new_values), gradient=grad, loss=total)


def sandwich_step(
    params: SlimmableParams,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    cfg: TrainConfig,
    opt: LocalOptimizer,
    n_widths: int | None = None,
    rng: np.random.Generator | None = None,
    rows: BatchRows | None = None,
) -> StepResult:
    """Full width against ground truth first, then distill sampled widths.

    The width sample always contains the smallest ratio; intermediate ratios
    are drawn uniformly without replacement until n_widths widths (counting
    the full and the smallest) have been used.  Losses are summed unweighted.
    A stack of devices shares one width sample.
    """
    masks = masks_for(params.layout, cfg.width_ratios)
    if n_widths is None:
        n_widths = len(masks)
    n_widths = max(2, min(n_widths, len(masks)))

    teacher_logits, total, grad = _width_pass(
        params, masks[-1], batch_x, cross_entropy, cross_entropy_grad, batch_y, rows
    )

    sampled = [masks[0]]
    middle = list(masks[1:-1])
    n_extra = n_widths - 2
    if middle and n_extra > 0:
        if n_extra >= len(middle):
            sampled.extend(middle)
        else:
            if rng is None:
                raise ValueError("rng required when sampling a strict subset of widths")
            picks = rng.choice(len(middle), size=n_extra, replace=False)
            sampled.extend(middle[j] for j in sorted(picks))

    for mask in sampled:
        _, loss, part = _width_pass(
            params, mask, batch_x, ipkd_loss, ipkd_grad, teacher_logits, rows
        )
        total += loss
        grad += part

    new_values = opt.apply(params.values, grad)
    return StepResult(params=params.with_values(new_values), gradient=grad, loss=total)


STEP_FUNCTIONS = {
    "superposed": superposed_step,
    "widthwise": widthwise_step,
    "sandwich": sandwich_step,
}
