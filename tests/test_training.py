"""Losses, optimizers, and the three local update rules."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slimfl.slimnet import (
    BatchRows,
    Layout,
    SlimmableParams,
    build_mask,
    forward,
    init_params,
    masks_for,
)
from slimfl.training import (
    _ce_loss_grad,
    _kd_loss_grad,
    _softmax_parts,
    _step,
    LocalOptimizer,
    TrainConfig,
    cross_entropy,
    cross_entropy_grad,
    decayed_lr,
    ipkd_grad,
    ipkd_loss,
    log_softmax,
    STEP_FUNCTIONS,
    sandwich_step,
    softmax,
    superposed_step,
    widthwise_step,
)

RNG = np.random.default_rng


def make_net(seed=0, in_dim=8, hidden=(6, 5), out=3):
    # perturb all coordinates (incl. zero-init biases) so no preactivation
    # sits exactly on a clamp kink, where subgradients and one-sided finite
    # differences legitimately disagree
    layout = Layout.mlp(in_dim, hidden, out)
    params = init_params(layout, RNG(seed))
    noise = RNG(seed + 1000).normal(0.0, 0.05, layout.size)
    return params.with_values(params.values + noise)


def make_batch(seed, n=6, in_dim=8, classes=3):
    rng = RNG(seed)
    return rng.normal(size=(n, in_dim)), rng.integers(0, classes, size=n)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((4, 10))
        assert abs(cross_entropy(logits, np.zeros(4, dtype=int)) - math.log(10)) < 1e-12

    def test_confident_correct_logits(self):
        logits = np.zeros((3, 3))
        labels = np.array([2, 0, 1])
        logits[np.arange(3), labels] = 20.0
        assert cross_entropy(logits, labels) <= 1e-8

    def test_matches_per_sample_oracle(self):
        rng = RNG(11)
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        total = 0.0
        for row, label in zip(logits, labels):
            probs = np.exp(row) / np.exp(row).sum()
            total += -math.log(probs[label])
        assert abs(cross_entropy(logits, labels) - total / 4) < 1e-12

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_grad_matches_finite_differences(self):
        rng = RNG(12)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        g = cross_entropy_grad(logits, labels)
        for i in range(5):
            for c in range(4):
                up, down = logits.copy(), logits.copy()
                up[i, c] += 1e-6
                down[i, c] -= 1e-6
                fd = (cross_entropy(up, labels) - cross_entropy(down, labels)) / 2e-6
                assert abs(g[i, c] - fd) < 1e-8


class TestDistillationLoss:
    def test_student_equal_teacher_gives_teacher_entropy(self):
        rng = RNG(13)
        logits = rng.normal(size=(5, 4))
        probs = softmax(logits)
        entropy = float(-(probs * np.log(probs)).sum(axis=1).mean())
        assert abs(ipkd_loss(logits, logits) - entropy) < 1e-12

    def test_uniform_teacher_averages_student_log_probs(self):
        rng = RNG(14)
        student = rng.normal(size=(6, 5))
        teacher = np.zeros((6, 5))
        expected = float((-log_softmax(student)).mean(axis=1).mean())
        assert abs(ipkd_loss(student, teacher) - expected) < 1e-12

    def test_matches_double_loop_oracle(self):
        rng = RNG(15)
        student = rng.normal(size=(4, 3))
        teacher = rng.normal(size=(4, 3))
        total = 0.0
        for s_row, t_row in zip(student, teacher):
            t_probs = np.exp(t_row) / np.exp(t_row).sum()
            s_log = s_row - math.log(np.exp(s_row).sum())
            for c in range(3):
                total += -t_probs[c] * s_log[c]
        assert abs(ipkd_loss(student, teacher) - total / 4) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ipkd_loss(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_minimized_at_teacher(self):
        # for a fixed teacher the soft cross-entropy is smallest at student = teacher
        rng = RNG(16)
        teacher = rng.normal(size=(3, 4))
        at_teacher = ipkd_loss(teacher, teacher)
        for _ in range(25):
            other = teacher + rng.normal(size=(3, 4))
            assert ipkd_loss(other, teacher) >= at_teacher - 1e-12


def optimizer(kind, lr, size):
    return LocalOptimizer(TrainConfig(optimizer=kind, lr=lr), size)


class TestFusedLosses:
    """The step's fused (loss, logit gradient) pairs are the four definitions, bit for bit."""

    @settings(max_examples=300)
    @given(
        counts=st.one_of(st.none(), st.lists(st.integers(1, 8), min_size=1, max_size=5)),
        batch=st.integers(1, 8),
        classes=st.integers(1, 12),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fused_pairs_equal_the_definitions(self, counts, batch, classes, scale, seed):
        # one device's (batch, classes) logits, or a stack padded to its longest batch
        rng = RNG(seed)
        shape = (len(counts), max(counts), classes) if counts else (batch, classes)
        rows = BatchRows(counts) if counts and min(counts) < max(counts) else None
        student, teacher = scale * rng.normal(size=shape), scale * rng.normal(size=shape)
        labels = rng.integers(0, classes, size=shape[:-1])

        def same(got, want):
            def as_bytes(pair):
                return [np.asarray(a).tobytes() for a in pair]

            return as_bytes(got) == as_bytes(want)

        # as in a step: the teacher's parts give its cross-entropy and then
        # the soft target, and one student's parts give both of its pairs
        teacher_parts = _softmax_parts(teacher)
        assert same(_ce_loss_grad(teacher_parts, labels, rows), (
            cross_entropy(teacher, labels, rows), cross_entropy_grad(teacher, labels, rows)
        ))
        soft_targets = teacher_parts[1] / teacher_parts[2]
        assert soft_targets.tobytes() == softmax(teacher).tobytes()
        parts = _softmax_parts(student)
        assert same(_kd_loss_grad(parts, soft_targets, rows), (
            ipkd_loss(student, teacher, rows), ipkd_grad(student, teacher, rows)
        ))
        assert same(_ce_loss_grad(parts, labels, rows), (
            cross_entropy(student, labels, rows), cross_entropy_grad(student, labels, rows)
        ))


class TestOptimizers:
    def test_sgd_step(self):
        values = np.array([1.0, 2.0])
        updated = optimizer("sgd", 0.1, 2).apply(values, np.array([0.5, -1.0]))
        np.testing.assert_allclose(updated, [0.95, 2.1])

    def test_adam_zero_gradient_never_moves(self):
        values = np.array([1.0, -2.0, 3.0])
        opt = optimizer("adam", 0.1, 3)
        for _ in range(50):
            values = opt.apply(values, np.zeros(3))
        np.testing.assert_array_equal(values, [1.0, -2.0, 3.0])

    def test_adam_first_step_magnitude_is_lr_signed(self):
        g = np.array([0.7, -1.3, 2.5])
        updated = optimizer("adam", 0.01, 3).apply(np.zeros(3), g)
        np.testing.assert_allclose(updated, -0.01 * np.sign(g), atol=1e-7)

    def test_adam_matches_scripted_oracle_on_quadratic(self):
        # independent reimplementation of the bias-corrected update
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        theta = np.array([2.0, -3.0])
        m = np.zeros(2)
        v = np.zeros(2)
        oracle = theta.copy()
        opt = optimizer("adam", lr, 2)
        for t in range(1, 101):
            grad = 2.0 * oracle  # d/dx of ||x||^2
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad**2
            oracle = oracle - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            theta = opt.apply(theta, 2.0 * theta)
        np.testing.assert_allclose(theta, oracle, atol=1e-10)
        assert opt.t == 100


class TestLearningRateSchedule:
    def test_first_step_equals_inverse_smoothness(self):
        assert decayed_lr(1.0, 10.0, 1) == 1.0 / 10.0

    def test_never_exceeds_inverse_smoothness(self):
        for t in range(1, 2000):
            assert decayed_lr(0.5, 4.0, t) <= 1.0 / 4.0 + 1e-15
        assert decayed_lr(0.5, 4.0, 2) < 1.0 / 4.0

    def test_config_dispatch(self):
        cfg = TrainConfig(lr_mode="strongly_convex", strong_convexity=1.0, smoothness=2.0)
        assert cfg.learning_rate(1) == 0.5
        assert TrainConfig(lr=0.01).learning_rate(7) == 0.01


class TestTrainConfig:
    """A ``TrainConfig`` checks itself when it is built."""

    def test_equal_default_weights_accepted(self):
        TrainConfig()

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TrainConfig(st_weights=(0.4, 0.4))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(st_weights=(0.0, 1.0))

    def test_width_ratios_must_end_full(self):
        with pytest.raises(ValueError, match="1.0"):
            TrainConfig(st_weights=(0.5, 0.5), width_ratios=(0.25, 0.5))

    @pytest.mark.parametrize(
        "field, value",
        # each once ran a step silently: Adam at a constant rate, with weights summing to 1.8
        [("optimizer", "adamw"), ("lr_mode", "decay"), ("st_weights", (0.9, 0.9))],
    )
    def test_bad_field_is_refused_before_any_step(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field}: "):
            TrainConfig(**{field: value})


class TestUpdateRuleArithmetic:
    """Hand-checkable accumulation semantics on the two-parameter quadratic.

    Parameters (a, b) = (1, 1); the full-width loss is a^2 + b^2 and the
    half-width keeps only `a` with loss a^2.
    """

    def quad_grads(self, theta):
        full = np.array([2 * theta[0], 2 * theta[1]])
        half = np.array([2 * theta[0], 0.0])
        return half, full

    def test_convex_combination_step(self):
        theta = np.array([1.0, 1.0])
        half, full = self.quad_grads(theta)
        g = 0.5 * half + 0.5 * full
        np.testing.assert_array_equal(g, [2.0, 1.0])
        np.testing.assert_array_equal(optimizer("sgd", 1.0, 2).apply(theta, g), [-1.0, 0.0])

    def test_unweighted_sum_step(self):
        theta = np.array([1.0, 1.0])
        half, full = self.quad_grads(theta)
        np.testing.assert_array_equal(half + full, [4.0, 2.0])


def frozen_teacher_combined_loss(params, cfg, x, y, teacher_logits):
    """Scalar objective whose gradient superposed_step must produce."""
    from slimfl.slimnet import masks_for

    masks = masks_for(params.layout, cfg.width_ratios)
    total = cfg.st_weights[-1] * cross_entropy(forward(params, masks[-1], x), y)
    for w, mask in zip(cfg.st_weights[:-1], masks[:-1]):
        total += w * ipkd_loss(forward(params, mask, x), teacher_logits)
    return total


def numeric_gradient(fn, values, step=1e-5):
    g = np.zeros_like(values)
    for j in range(len(values)):
        up, down = values.copy(), values.copy()
        up[j] += step
        down[j] -= step
        g[j] = (fn(up) - fn(down)) / (2 * step)
    return g


class TestSuperposedStep:
    def test_gradient_matches_frozen_teacher_finite_differences(self):
        params = make_net(20)
        x, y = make_batch(21)
        cfg = TrainConfig(optimizer="sgd", lr=0.1)
        teacher_logits = forward(params, build_mask(params.layout, 1.0), x)
        result = superposed_step(params, x, y, cfg, LocalOptimizer(cfg, params.layout.size))

        def loss_fn(values):
            return frozen_teacher_combined_loss(
                params.with_values(values), cfg, x, y, teacher_logits
            )

        numeric = numeric_gradient(loss_fn, params.values.copy())
        np.testing.assert_allclose(result.gradient, numeric, rtol=1e-4, atol=1e-7)
        assert abs(result.loss - loss_fn(params.values)) < 1e-12

    def test_zero_first_weight_reduces_to_full_width_sgd(self):
        params = make_net(22)
        x, y = make_batch(23)
        # a 0.0 weight, which TrainConfig refuses, goes to the step loop
        # itself, as superposed_step hands it its widths: the limit must match
        cfg = TrainConfig(optimizer="sgd", lr=0.5)
        half, full = masks_for(params.layout, cfg.width_ratios)
        opt = LocalOptimizer(cfg, params.layout.size)
        result = _step(params, x, y, opt, None, (full, 1.0), [(half, 0.0)], distill=True)

        logits = forward(params, full, x)
        from slimfl.slimnet import backward

        expected_grad = backward(params, full, x, cross_entropy_grad(logits, y))
        np.testing.assert_array_equal(result.gradient, expected_grad)
        np.testing.assert_array_equal(result.params.values, params.values - 0.5 * expected_grad)

    def test_report_combination_identity(self):
        params = make_net(24)
        x, y = make_batch(25)
        cfg = TrainConfig(st_weights=(0.3, 0.7), optimizer="sgd")
        result = superposed_step(params, x, y, cfg, LocalOptimizer(cfg, params.layout.size))
        recombined = 0.7 * result.full_loss + 0.3 * result.other_losses[0]
        assert abs(result.loss - recombined) < 1e-12

    def test_distillation_gradient_stays_inside_student_mask(self):
        # teacher values influence the loss but never open masked-out coordinates
        params = make_net(26)
        x, y = make_batch(27)
        cfg = TrainConfig(optimizer="sgd")
        half_bits = build_mask(params.layout, 0.5).bits
        result = superposed_step(params, x, y, cfg, LocalOptimizer(cfg, params.layout.size))
        from slimfl.slimnet import backward

        full = build_mask(params.layout, 1.0)
        ce_part = 0.5 * backward(
            params, full, x, cross_entropy_grad(forward(params, full, x), y)
        )
        kd_part = result.gradient - ce_part
        np.testing.assert_allclose(kd_part[~half_bits], 0.0, atol=1e-18)


class TestWidthwiseStep:
    def test_single_width_equals_superposed_full_only(self):
        params = make_net(30)
        x, y = make_batch(31)
        cfg = TrainConfig(st_weights=(1.0,), width_ratios=(1.0,), optimizer="sgd", lr=0.2)
        a = widthwise_step(params, x, y, cfg, LocalOptimizer(cfg, params.layout.size))
        b = superposed_step(params, x, y, cfg, LocalOptimizer(cfg, params.layout.size))
        np.testing.assert_array_equal(a.gradient, b.gradient)
        np.testing.assert_array_equal(a.params.values, b.params.values)

    def test_gradient_matches_finite_differences(self):
        params = make_net(32)
        x, y = make_batch(33)
        cfg = TrainConfig(optimizer="sgd")
        result = widthwise_step(params, x, y, cfg, LocalOptimizer(cfg, params.layout.size))

        from slimfl.slimnet import masks_for

        masks = masks_for(params.layout, cfg.width_ratios)

        def loss_fn(values):
            p = params.with_values(values)
            return sum(cross_entropy(forward(p, m, x), y) for m in masks)

        numeric = numeric_gradient(loss_fn, params.values.copy())
        np.testing.assert_allclose(result.gradient, numeric, rtol=1e-4, atol=1e-7)


class TestSandwichStep:
    def test_two_widths_match_superposed_up_to_scale(self):
        # with two widths the sampled set is {smallest}; summed losses equal
        # twice the equal-weight convex combination, so gradients align exactly
        params = make_net(40)
        x, y = make_batch(41)
        cfg = TrainConfig(optimizer="sgd")
        sup = superposed_step(params, x, y, cfg, LocalOptimizer(cfg, params.layout.size))
        sand = sandwich_step(params, x, y, cfg, LocalOptimizer(cfg, params.layout.size))
        np.testing.assert_allclose(sand.gradient, 2.0 * sup.gradient, rtol=1e-12, atol=1e-300)

    def test_two_widths_same_trajectory_under_adam(self):
        # Adam normalizes the gradient scale, so the x2 factor cancels; the
        # residual eps-level wobble is far below the 1e-3 step size
        params = make_net(42)
        x, y = make_batch(43)
        cfg = TrainConfig(optimizer="adam", lr=1e-3)
        sup = superposed_step(params, x, y, cfg, LocalOptimizer(cfg, params.layout.size))
        sand = sandwich_step(params, x, y, cfg, LocalOptimizer(cfg, params.layout.size))
        np.testing.assert_allclose(sup.params.values, sand.params.values, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        params = make_net(49)
        x, y = make_batch(50)
        cfg = TrainConfig(optimizer="sgd")
        teacher_logits = forward(params, build_mask(params.layout, 1.0), x)
        result = sandwich_step(params, x, y, cfg, LocalOptimizer(cfg, params.layout.size))

        def loss_fn(values):
            p = params.with_values(values)
            full = build_mask(p.layout, 1.0)
            half = build_mask(p.layout, 0.5)
            return cross_entropy(forward(p, full, x), y) + ipkd_loss(
                forward(p, half, x), teacher_logits
            )

        numeric = numeric_gradient(loss_fn, params.values.copy())
        np.testing.assert_allclose(result.gradient, numeric, rtol=1e-4, atol=1e-7)


def assert_stack_equals_devices_alone(cfg, singles, batches, counts):
    """Step the devices ``singles`` as one stack and each alone, bit for bit.

    ``batches[t][k]`` is device k's (x, y) at step t, ``max(counts)`` rows
    of which the first ``counts[k]`` are real.
    """
    step = STEP_FUNCTIONS[cfg.algorithm]
    layout = singles[0].layout
    stack = SlimmableParams(layout, np.stack([p.values for p in singles]))
    single_opts = [LocalOptimizer(cfg, layout.size) for _ in singles]
    stack_opt = LocalOptimizer(cfg, (len(singles), layout.size))
    rows = BatchRows(counts) if min(counts) < max(counts) else None
    for step_batches in batches:
        stacked = step(
            stack, np.stack([x for x, _ in step_batches]),
            np.stack([y for _, y in step_batches]), cfg, stack_opt, rows=rows,
        )
        for k, ((x, y), n) in enumerate(zip(step_batches, counts)):
            alone = step(singles[k], x[:n], y[:n], cfg, single_opts[k])
            assert stacked.params.values[k].tobytes() == alone.params.values.tobytes()
            assert stacked.gradient[k].tobytes() == alone.gradient.tobytes()
            assert stacked.loss[k] == alone.loss
            assert stacked.full_loss[k] == alone.full_loss
            assert [loss[k] for loss in stacked.other_losses] == list(alone.other_losses)
            singles[k] = alone.params
        stack = stacked.params


class TestStackedSteps:
    """K devices stepped as one stack equal K single-device steps, bit for bit."""

    # equal batches, and batches of 6, 2, 1, 6 and 4 samples padded to 6 rows
    @pytest.mark.parametrize("counts", [[6, 6, 6, 6], [6, 2, 1, 6, 4]], ids=["equal", "padded"])
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("rule", sorted(STEP_FUNCTIONS))
    def test_stack_equals_devices_alone(self, rule, optimizer, counts):
        cfg = TrainConfig(
            st_weights=(0.2, 0.3, 0.5), width_ratios=(0.25, 0.5, 1.0),
            optimizer=optimizer, lr=0.05, algorithm=rule,
        )
        singles = [make_net(60 + k, in_dim=64, hidden=(32,), out=10) for k in range(len(counts))]
        batches = [
            [make_batch(100 * t + k, in_dim=64, classes=10) for k in range(len(counts))]
            for t in range(3)
        ]
        assert_stack_equals_devices_alone(cfg, singles, batches, counts)

    @settings(max_examples=200)
    @given(
        rule=st.sampled_from(sorted(STEP_FUNCTIONS)),
        optimizer=st.sampled_from(["adam", "sgd"]),
        in_dim=st.integers(1, 12),
        hidden=st.lists(st.integers(1, 10), min_size=1, max_size=2),
        classes=st.integers(2, 5),
        sub_ratios=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3, unique=True),
        counts=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        n_steps=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    # a one-unit layer makes the weight gradient a matrix-vector product
    @example(
        rule="sandwich", optimizer="sgd", in_dim=2, hidden=[1], classes=2,
        sub_ratios=[0.5], counts=[1, 2, 6], n_steps=1, seed=1,
    )
    def test_stack_equals_devices_alone_property(
        self, rule, optimizer, in_dim, hidden, classes, sub_ratios, counts, n_steps, seed
    ):
        # any layout, 2-4 widths, device count and padded batch sizes
        rng = RNG(seed)
        weights = rng.uniform(0.1, 1.0, len(sub_ratios) + 1)
        cfg = TrainConfig(
            st_weights=tuple(weights / weights.sum()),
            width_ratios=(*sorted(sub_ratios), 1.0),
            optimizer=optimizer, lr=0.05, algorithm=rule,
        )
        layout = Layout.mlp(in_dim, tuple(hidden), classes)
        singles = [
            params.with_values(params.values + rng.normal(0.0, 0.05, layout.size))
            for params in (init_params(layout, rng) for _ in counts)
        ]
        width = max(counts)
        batches = [
            [(rng.normal(size=(width, in_dim)), rng.integers(0, classes, width)) for _ in counts]
            for _ in range(n_steps)
        ]
        assert_stack_equals_devices_alone(cfg, singles, batches, counts)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("rule", sorted(STEP_FUNCTIONS))
    def test_read_only_broadcast_stack_equals_copied_stack(self, rule, optimizer):
        # LocalTraining steps from the broadcast global vector without a copy
        cfg = TrainConfig(
            st_weights=(0.2, 0.3, 0.5), width_ratios=(0.25, 0.5, 1.0),
            optimizer=optimizer, lr=0.05, algorithm=rule,
        )
        counts = [6, 2, 1, 6, 4]
        net = make_net(80, in_dim=64, hidden=(32,), out=10)
        vector = net.values
        broadcast = np.broadcast_to(vector, (len(counts), len(vector)))
        assert not broadcast.flags.writeable
        results = []
        for start in (broadcast, broadcast.copy()):
            params = net.with_values(start)
            opt = LocalOptimizer(cfg, start.shape)
            steps = []
            for t in range(3):
                batch = [make_batch(100 * t + k, in_dim=64, classes=10) for k in range(len(counts))]
                result = STEP_FUNCTIONS[rule](
                    params, np.stack([x for x, _ in batch]), np.stack([y for _, y in batch]),
                    cfg, opt, rows=BatchRows(counts),
                )
                steps.append(
                    [a.tobytes() for a in (result.params.values, result.gradient, result.loss)]
                )
                params = result.params
            results.append(steps)
        assert results[0] == results[1]
        assert broadcast[0].tobytes() == vector.tobytes()

    def test_stacked_losses_match_per_device_losses(self):
        rng = RNG(70)
        logits = rng.normal(size=(3, 5, 4))
        teacher = rng.normal(size=(3, 5, 4))
        labels = rng.integers(0, 4, size=(3, 5))
        ce, kd = cross_entropy(logits, labels), ipkd_loss(logits, teacher)
        ce_grad = cross_entropy_grad(logits, labels)
        kd_grad = ipkd_grad(logits, teacher)
        for k in range(3):
            assert ce[k] == cross_entropy(logits[k], labels[k])
            assert kd[k] == ipkd_loss(logits[k], teacher[k])
            np.testing.assert_array_equal(ce_grad[k], cross_entropy_grad(logits[k], labels[k]))
            np.testing.assert_array_equal(kd_grad[k], ipkd_grad(logits[k], teacher[k]))
