"""Layouts, mask algebra, forward/backward correctness and cost accounting,
with a hypothesis property for mask nesting and zero gradients outside the mask."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slimfl.slimnet import (
    BatchRows,
    _blocks,
    _matmul,
    ForwardTrace,
    LayerSpec,
    Layout,
    SlimmableParams,
    backward,
    build_mask,
    complement_bits,
    forward,
    init_params,
    model_cost,
)

RNG = np.random.default_rng


def small_layout():
    return Layout.mlp(8, (6, 5), 3)


class TestLayout:
    def test_mlp_offsets_cover_vector_exactly(self):
        layout = small_layout()
        sizes = [spec.size for spec in layout.layers]
        assert layout.size == sum(sizes)
        pos = 0
        for spec, (w_off, b_off) in zip(layout.layers, layout.offsets):
            assert w_off == pos
            assert b_off == pos + spec.out_dim * spec.in_dim
            pos += spec.size

    def test_documented_mlp_sizes(self):
        layout = Layout.mlp(784, (128,), 10)
        assert layout.size == 101_770
        assert int(build_mask(layout, 0.5).bits.sum()) == 50_890

    def test_hidden_widths_slim_while_input_and_logits_stay_whole(self):
        assert Layout((8, 6, 5, 3)).layers == (
            LayerSpec(8, 6, slim_input=False, slim_output=True),
            LayerSpec(6, 5, slim_input=True, slim_output=True),
            LayerSpec(5, 3, slim_input=True, slim_output=False),
        )
        assert Layout((3, 2)).layers == (LayerSpec(3, 2, slim_input=False, slim_output=False),)

    @pytest.mark.parametrize("dims", [(), (4,), (4, 0, 2), (0, 3), (4, 3, -1)])
    def test_needs_two_widths_each_at_least_one(self, dims):
        with pytest.raises(ValueError, match="at least two widths"):
            Layout(dims)


class TestBuildMask:
    def test_slim_output_layer_keeps_first_rows_and_biases(self):
        # out=4, in=3, slim_output only: ratio 0.5 keeps rows {0,1} and biases {0,1}
        layout = Layout((3, 4, 2))
        mask = build_mask(layout, 0.5)
        w = mask.bits[:12].reshape(4, 3)
        assert w[:2].all() and not w[2:].any()
        assert mask.bits[12:14].all() and not mask.bits[14:16].any()

    def test_ratio_one_is_all_ones(self):
        layout = small_layout()
        assert build_mask(layout, 1.0).bits.all()

    def test_invalid_ratio_rejected(self):
        layout = small_layout()
        for ratio in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="ratio"):
                build_mask(layout, ratio)

    def test_partition_is_exact(self):
        # half mask plus its complement reassembles any vector with no overlap
        layout = small_layout()
        half = build_mask(layout, 0.5)
        rest = complement_bits(half)
        assert not (half.bits & rest).any()
        assert (half.bits | rest).all()
        theta = RNG(0).normal(size=layout.size)
        np.testing.assert_array_equal(theta * half.bits + theta * rest, theta)

    def test_nestedness(self):
        layout = small_layout()
        bits_by_ratio = [build_mask(layout, r).bits for r in (0.25, 0.5, 0.75, 1.0)]
        for narrow, wide in zip(bits_by_ratio, bits_by_ratio[1:]):
            assert (narrow & wide == narrow).all()

    def test_ceil_boundary_not_inflated_by_float_product(self):
        layout = Layout((3, 10, 2))
        mask = build_mask(layout, 0.1)  # 10 * 0.1 must keep exactly 1 row
        assert int(mask.bits[:30].reshape(10, 3)[:, 0].sum()) == 1


def extract_subnet(params: SlimmableParams, ratio: float):
    """Physically sliced sub-network; the oracle for masked-forward equivalence."""
    from slimfl.slimnet import active_dims

    layers, weights, biases = [], [], []
    for i, spec in enumerate(params.layout.layers):
        w_off, b_off = params.layout.offsets[i]
        w = params.values[w_off:b_off].reshape(spec.out_dim, spec.in_dim)
        b = params.values[b_off : b_off + spec.out_dim]
        rows, cols = active_dims(spec, ratio)
        weights.append(w[:rows, :cols])
        biases.append(b[:rows])
    return weights, biases


def subnet_forward(weights, biases, x):
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        h = np.clip(z, 0.0, 6.0) if i < len(weights) - 1 else z
    return h


class TestForward:
    def test_zero_params_give_zero_logits(self):
        layout = small_layout()
        params = SlimmableParams(layout, np.zeros(layout.size))
        x = RNG(1).normal(size=(5, 8))
        for ratio in (0.5, 1.0):
            np.testing.assert_array_equal(forward(params, build_mask(layout, ratio), x), 0.0)

    def test_identity_single_layer(self):
        layout = Layout((3, 3))
        values = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
        params = SlimmableParams(layout, values)
        x = RNG(2).normal(size=(4, 3))
        np.testing.assert_allclose(forward(params, build_mask(layout, 1.0), x), x)

    @pytest.mark.parametrize("counts", [None, [5], [5, 5, 5], [5, 2, 1]])
    def test_full_mask_equals_explicit_multiply(self, counts):
        # forward skips w * bits under the all-ones mask; the product is w bit for bit
        layout = Layout.mlp(8, (6, 5), 3)
        rng = RNG(9)
        values = rng.normal(size=(len(counts), layout.size) if counts else layout.size)
        values[..., ::7] = -0.0
        params = SlimmableParams(layout, values)
        mask = build_mask(layout, 1.0)
        assert mask.full and not build_mask(layout, 0.5).full
        x = rng.normal(size=(*values.shape[:-1], 5, 8))
        rows = BatchRows(counts) if counts and min(counts) < max(counts) else None
        h = x
        for i in range(len(layout.layers)):
            w, b = _blocks(values, layout, i)
            w_bits, b_bits = _blocks(mask.bits, layout, i)
            z = _matmul(rows, h, w * w_bits, transpose=True) + (b * b_bits)[..., None, :]
            h = np.clip(z, 0.0, 6.0) if i < len(layout.layers) - 1 else z
        assert forward(params, mask, x, rows=rows).tobytes() == h.tobytes()

    def test_masked_forward_equals_extracted_subnet(self):
        rng = RNG(3)
        layout = small_layout()
        params = init_params(layout, rng)
        x = rng.normal(size=(7, 8))
        for ratio in (0.25, 0.5, 0.75):
            masked = forward(params, build_mask(layout, ratio), x)
            oracle = subnet_forward(*extract_subnet(params, ratio), x)
            np.testing.assert_allclose(masked[:, : oracle.shape[1]], oracle, atol=1e-12)
            assert masked.shape[1] == layout.layers[-1].out_dim

    def test_shape_error(self):
        layout = small_layout()
        params = init_params(layout, RNG(4))
        with pytest.raises(ValueError, match="batch shape"):
            forward(params, build_mask(layout, 1.0), np.zeros((2, 9)))


def finite_difference_gradient(loss_fn, values, step=1e-5):
    grad = np.zeros_like(values)
    for j in range(len(values)):
        up, down = values.copy(), values.copy()
        up[j] += step
        down[j] -= step
        grad[j] = (loss_fn(up) - loss_fn(down)) / (2 * step)
    return grad


class TestBackward:
    def test_zero_loss_gradient_gives_zero(self):
        layout = small_layout()
        params = init_params(layout, RNG(5))
        x = RNG(6).normal(size=(4, 8))
        g = backward(params, build_mask(layout, 0.5), x, np.zeros((4, 3)))
        np.testing.assert_array_equal(g, 0.0)

    def test_gradient_zero_outside_mask(self):
        rng = RNG(7)
        layout = small_layout()
        params = init_params(layout, rng)
        x = rng.normal(size=(6, 8))
        for ratio in (0.25, 0.5, 0.75):
            mask = build_mask(layout, ratio)
            g = backward(params, mask, x, rng.normal(size=(6, 3)))
            np.testing.assert_array_equal(g[~mask.bits], 0.0)

    @pytest.mark.parametrize("ratio", [0.5, 1.0])
    def test_matches_finite_differences(self, ratio):
        rng = RNG(8)
        layout = small_layout()
        params = init_params(layout, rng)
        x = rng.normal(size=(5, 8))
        target = rng.normal(size=(5, 3))
        mask = build_mask(layout, ratio)

        # quadratic readout loss so the finite-difference oracle is smooth
        def loss_fn(values):
            logits = forward(params.with_values(values), mask, x)
            return 0.5 * float(((logits - target) ** 2).sum())

        logits = forward(params, mask, x)
        analytic = backward(params, mask, x, logits - target)
        numeric = finite_difference_gradient(loss_fn, params.values.copy())
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


class TestMaskProperty:
    @settings(max_examples=300)
    @given(
        dims=st.lists(st.integers(1, 12), min_size=2, max_size=5),
        narrow=st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=3, unique=True
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_masks_nest_and_gradients_stay_inside(self, dims, narrow, seed):
        rng = RNG(seed)
        layout = Layout(tuple(dims))
        masks = [build_mask(layout, r) for r in (*sorted(narrow), 1.0)]
        for smaller, larger in zip(masks, masks[1:]):
            assert not (smaller.bits & ~larger.bits).any()
        assert masks[-1].bits.all()
        params = init_params(layout, rng)
        x = rng.normal(size=(3, dims[0]))
        for mask in masks:
            g = backward(params, mask, x, rng.normal(size=(3, dims[-1])))
            np.testing.assert_array_equal(g[~mask.bits], 0.0)


class TestSharedFirstLayer:
    """A width's forward, whether from a containing width's layer 0
    (``first``) or its own, is the masked-weight forward bit for bit: its
    logits, what its backward reads and the gradient."""

    @staticmethod
    def masked_weight_forward(values, layout, mask, x, rows):
        """Every layer's product with the masked weights, layer 0's included."""
        trace, h = ForwardTrace(), x
        for i in range(len(layout.layers)):
            w, b = _blocks(values, layout, i)
            w_bits, b_bits = _blocks(mask.bits, layout, i)
            w_m = w * w_bits
            z = _matmul(rows, h, w_m, transpose=True) + (b * b_bits)[..., None, :]
            trace.weights.append(w_m)
            trace.inputs.append(h)
            trace.preacts.append(z)
            h = np.clip(z, 0.0, 6.0) if i < len(layout.layers) - 1 else z
        return h, trace

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300)
    @given(
        dims=st.lists(st.integers(1, 12), min_size=2, max_size=5),
        ratios=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3, unique=True),
        counts=st.one_of(st.none(), st.lists(st.integers(1, 6), min_size=1, max_size=4)),
        overflow=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # a one-unit hidden layer; no hidden layer; a dropped unit's product overflowing
    @example(dims=[5, 1, 4, 3], ratios=[0.5], counts=[1, 6, 3], overflow=False, seed=1)
    @example(dims=[6, 3], ratios=[0.5], counts=[2, 5], overflow=False, seed=2)
    @example(dims=[4, 6, 3], ratios=[0.5], counts=None, overflow=True, seed=3)
    @example(dims=[4, 6, 5, 3], ratios=[0.5, 0.25], counts=[3, 1], overflow=True, seed=4)
    def test_shared_first_layer_equals_masked_weights(
        self, dims, ratios, counts, overflow, seed
    ):
        rng = RNG(seed)
        layout = Layout(tuple(dims))
        lead = (len(counts),) if counts else ()
        values = rng.normal(size=lead + (layout.size,))
        params = SlimmableParams(layout, values)
        width = max(counts) if counts else 5
        rows = BatchRows(counts) if counts and min(counts) < width else None
        x = rng.normal(size=lead + (width, dims[0]))
        if overflow:  # the last layer-0 unit, dropped by every ratio < 1, overflows to inf
            _blocks(values, layout, 0)[0][..., -1, 0] = np.finfo(np.float64).max
            x[..., 0] = 2.0
        logits_grad = rng.normal(size=lead + (width, dims[-1]))
        for k, n in enumerate(counts or []):
            logits_grad[k, n:] = 0.0

        def as_bytes(logits, trace):
            grad = backward(params, mask, x, logits_grad, trace=trace, rows=rows)
            arrays = [logits, grad, *trace.inputs, *trace.preacts, *trace.weights[1:]]
            return [a.tobytes() for a in arrays]

        # from the full width's layer 0, and from the next wider width's
        containing = ForwardTrace()
        forward(params, build_mask(layout, 1.0), x, trace=containing, rows=rows)
        for ratio in sorted(ratios, reverse=True):
            mask = build_mask(layout, ratio)
            expected = as_bytes(*self.masked_weight_forward(values, layout, mask, x, rows))
            own = ForwardTrace()
            assert as_bytes(forward(params, mask, x, trace=own, rows=rows), own) == expected
            assert own.weights[0] is None
            shared = ForwardTrace()
            logits = forward(params, mask, x, trace=shared, rows=rows, first=containing.preacts[0])
            assert as_bytes(logits, shared) == expected
            containing = own

    def test_first_layer_shape_checked(self):
        layout = small_layout()
        params = init_params(layout, RNG(4))
        with pytest.raises(ValueError, match="first layer shape"):
            forward(params, build_mask(layout, 0.5), np.zeros((2, 8)), first=np.zeros((3, 6)))


class TestDeviceStack:
    """A (devices, P) stack computes every row bitwise as that device alone."""

    # equal batches of 1 and of 5, batches padded to 8 rows, and batches
    # padded to more rows than the BLAS sums in one block; 32 -> 10 is a
    # shape whose BLAS rows depend on the matmul's row count
    @pytest.mark.parametrize(
        "counts",
        [[1, 1, 1], [5, 5, 5], [8, 5, 1, 3, 8], [600, 450, 300, 420, 530]],
        ids=["1", "5", "padded", "padded-long"],
    )
    def test_rows_equal_single_device_passes(self, counts):
        rng = RNG(9)
        layout = Layout.mlp(64, (32,), 10)
        stack = SlimmableParams(
            layout, np.stack([init_params(layout, rng).values for _ in counts])
        )
        width = max(counts)
        rows = BatchRows(counts) if min(counts) < width else None
        x = rng.normal(size=(len(counts), width, 64))
        logits_grad = rng.normal(size=(len(counts), width, 10))
        for k, n in enumerate(counts):
            logits_grad[k, n:] = 0.0
        for ratio in (0.5, 1.0):
            mask = build_mask(layout, ratio)
            trace = ForwardTrace()
            logits = forward(stack, mask, x, trace=trace, rows=rows)
            grad = backward(stack, mask, x, logits_grad, trace=trace, rows=rows)
            np.testing.assert_array_equal(
                grad, backward(stack, mask, x, logits_grad, rows=rows)
            )
            for k, n in enumerate(counts):
                alone = stack.with_values(stack.values[k])
                np.testing.assert_array_equal(logits[k, :n], forward(alone, mask, x[k, :n]))
                np.testing.assert_array_equal(
                    grad[k], backward(alone, mask, x[k, :n], logits_grad[k, :n])
                )

    def test_batch_must_carry_the_device_axis(self):
        layout = small_layout()
        stack = SlimmableParams(layout, np.zeros((2, layout.size)))
        with pytest.raises(ValueError, match="batch shape"):
            forward(stack, build_mask(layout, 1.0), np.zeros((3, 4, 8)))
        with pytest.raises(ValueError, match="batch shape"):
            forward(stack, build_mask(layout, 1.0), np.zeros((4, 8)))

    def test_values_must_be_a_vector_or_a_stack(self):
        layout = small_layout()
        with pytest.raises(ValueError, match="layout needs"):
            SlimmableParams(layout, np.zeros((2, 2, layout.size)))


class TestModelCost:
    def test_quadratic_flops_savings_on_doubly_slimmed_layer(self):
        layout = Layout.mlp(8, (16, 16), 3)
        full = model_cost(layout, build_mask(layout, 1.0))
        half = model_cost(layout, build_mask(layout, 0.5))
        # middle layer slims both dims; overall ratio lands near quadratic
        hidden_full = 2 * 16 * 16
        hidden_half = 2 * 8 * 8
        assert hidden_half / hidden_full == 0.25
        assert half.flops_per_image < full.flops_per_image

    def test_param_counts_on_documented_mlp(self):
        layout = Layout.mlp(784, (128,), 10)
        full = model_cost(layout, build_mask(layout, 1.0))
        half = model_cost(layout, build_mask(layout, 0.5))
        assert full.param_count == 101_770
        assert half.param_count == 50_890
        assert abs(half.param_count / full.param_count - 0.5) < 1e-3

    def test_bits_per_round_scales_with_bits_per_param(self):
        layout = small_layout()
        mask = build_mask(layout, 1.0)
        c32 = model_cost(layout, mask, bits_per_param=32.0)
        c37 = model_cost(layout, mask, bits_per_param=37.66)
        assert c32.bits_per_round == c32.param_count * 32
        assert c37.bits_per_round == round(c37.param_count * 37.66)
