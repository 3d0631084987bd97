"""Local training for slimmable networks.

The three update rules are one loop, ``_step``: one optimizer step down a
weighted sum of the widths' losses, where the full width trains on the
labels and each other width on the labels or, distilled, on the detached
full-width logits.  A rule is three facts in ``STEP_RULES``, each bound
into its step function in ``STEP_FUNCTIONS``: superposed_step (SlimFL's
superposition training) uses ``st_weights`` and distills the sub-widths in
ascending order; sandwich_step does the same with unit weights;
widthwise_step trains every width on the labels, widest first, with unit
weights.

A rule steps one device's vector, or a (devices, P) stack of vectors with
(devices, batch, ...) batches, padded where batch sizes differ
(``slimnet.BatchRows``); device k's result is bitwise the one it gets alone.
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

    def __post_init__(self) -> None:
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
        if not 0 < self.strong_convexity <= self.smoothness:
            raise ValueError("strong_convexity: need 0 < strong_convexity <= smoothness")
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


def _softmax_parts(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What softmax and log_softmax share: ``shifted = logits - max``,
    ``e = exp(shifted)`` and e's sum over the classes, kept as an axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    _, e, total = _softmax_parts(logits)
    return e / total


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted, _, total = _softmax_parts(logits)
    return shifted - np.log(total)


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


def _ce_loss_grad(parts, labels: np.ndarray, rows: BatchRows | None):
    """``(cross_entropy, cross_entropy_grad)`` of checked labels, bit for bit,
    from the logits' ``_softmax_parts``."""
    shifted, e, total = parts
    true_class = labels[..., None]
    log_p = np.take_along_axis(shifted, true_class, axis=-1) - np.log(total)
    g = e / total
    np.put_along_axis(g, true_class, np.take_along_axis(g, true_class, axis=-1) - 1.0, axis=-1)
    return -_batch_mean(log_p[..., 0], rows), _per_example_grad(g, rows)


def _kd_loss_grad(parts, soft_targets: np.ndarray, rows: BatchRows | None):
    """``(ipkd_loss, ipkd_grad)``, bit for bit, from the student logits'
    ``_softmax_parts`` and the teacher's softmax."""
    shifted, e, total = parts
    log_p = shifted - np.log(total)
    g = e / total
    g -= soft_targets
    return -_batch_mean((soft_targets * log_p).sum(axis=-1), rows), _per_example_grad(g, rows)


# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class LocalOptimizer:
    """Optimizer of one device or a device stack: the step counter and the
    Adam moments ``m``, ``v``, shaped ``P`` or ``(devices, P)``."""

    def __init__(self, cfg: TrainConfig, shape: int | tuple[int, int]):
        self.cfg = cfg
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.denom = np.empty(shape)  # Adam's work array, kept across steps

    def apply(self, values: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """The stepped vector under SGD or bias-corrected Adam.  Adam's moments
        update in place and the step is built in ``denom`` and a fresh array,
        the result; each element sees the textbook expressions' operations."""
        self.t += 1
        lr = self.cfg.learning_rate(self.t)
        if self.cfg.optimizer == "sgd":
            step = np.multiply(grad, lr)
            return np.subtract(values, step, out=step)
        step = np.multiply(grad, 1.0 - BETA1)
        self.m *= BETA1
        self.m += step  # m = beta1 * m + (1 - beta1) * g
        np.multiply(grad, 1.0 - BETA2, out=step)
        step *= grad
        self.v *= BETA2
        self.v += step  # v = beta2 * v + (1 - beta2) * g * g
        np.divide(self.m, 1.0 - BETA1**self.t, out=step)
        step *= lr  # lr * m_hat
        denom = np.divide(self.v, 1.0 - BETA2**self.t, out=self.denom)
        np.sqrt(denom, out=denom)
        denom += EPS  # sqrt(v_hat) + eps
        step /= denom
        return np.subtract(values, step, out=step)


@dataclass(frozen=True, eq=False)
class StepResult:
    """One step's new parameters and gradient, and its losses (one per device
    for a stack): the weighted sum descended, the full width's, and the
    other widths' in summation order."""

    params: SlimmableParams
    gradient: np.ndarray
    loss: float | np.ndarray
    full_loss: float | np.ndarray
    other_losses: tuple


def _step(params, batch_x, batch_y, opt, rows, full, others, distill) -> StepResult:
    """One optimizer step down the weighted sum of the widths' losses.

    ``full`` is the full width's ``(mask, weight)``; it trains on the labels
    and its detached logits are the teacher.  ``others`` are the other
    widths' pairs in summation order, distilled from the teacher if
    ``distill``, else trained on the labels.  Each width takes one softmax
    of its logits for its loss and logit gradient, the teacher's softmax is
    every distilled width's soft target, every other width shares the full
    width's layer 0, and each width's forward trace is reused by its
    backward."""
    mask, weight = full
    trace = ForwardTrace()
    teacher = forward(params, mask, batch_x, trace=trace, rows=rows)
    first = trace.preacts[0]
    labels = _check_labels(teacher, batch_y)
    parts = _softmax_parts(teacher)
    full_loss, logit_grad = _ce_loss_grad(parts, labels, rows)
    grad = backward(params, mask, batch_x, logit_grad, trace=trace, rows=rows)
    grad *= weight
    soft_targets = parts[1] / parts[2] if distill else None  # the teacher's softmax

    other_losses = []
    for mask, w in others:
        trace = ForwardTrace()
        logits = forward(params, mask, batch_x, trace=trace, rows=rows, first=first)
        parts = _softmax_parts(logits)
        width_loss, logit_grad = (
            _kd_loss_grad(parts, soft_targets, rows) if distill
            else _ce_loss_grad(parts, labels, rows)
        )
        other_losses.append(width_loss)
        part = backward(params, mask, batch_x, logit_grad, trace=trace, rows=rows)
        part *= w
        grad += part
    del trace, first  # activations, before the optimizer allocates

    loss = weight * full_loss + sum(w * k for (_, w), k in zip(others, other_losses))
    new_params = params.with_values(opt.apply(params.values, grad))
    return StepResult(new_params, grad, loss, full_loss, tuple(other_losses))


# each step rule's three facts: whether the widths' losses are weighted by
# ``st_weights`` (else unit weights), whether the other widths are summed
# ascending (else widest first), and whether they are distilled from the
# full width (else trained on the labels)
STEP_RULES = {
    "superposed": (True, True, True),  # SlimFL's superposition training
    "widthwise": (False, False, False),
    "sandwich": (False, True, True),
}


def _rule(weighted: bool, ascending: bool, distill: bool):
    """The step function of one rule: ``_step`` on the rule's facts."""

    def step(
        params: SlimmableParams, batch_x: np.ndarray, batch_y: np.ndarray, cfg: TrainConfig,
        opt: LocalOptimizer, rows: BatchRows | None = None,
    ) -> StepResult:
        """One optimizer step of the rule: ``_step`` on the full width and
        the other widths in the rule's order, each with its weight."""
        masks = masks_for(params.layout, cfg.width_ratios)
        widths = list(zip(masks, cfg.st_weights if weighted else [1.0] * len(masks)))
        others = widths[:-1] if ascending else widths[-2::-1]
        return _step(params, batch_x, batch_y, opt, rows, widths[-1], others, distill)

    return step


STEP_FUNCTIONS = {rule: _rule(*facts) for rule, facts in STEP_RULES.items()}
superposed_step = STEP_FUNCTIONS["superposed"]
widthwise_step = STEP_FUNCTIONS["widthwise"]
sandwich_step = STEP_FUNCTIONS["sandwich"]
