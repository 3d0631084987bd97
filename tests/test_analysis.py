"""Convergence bound, power-split optimization, data-skew estimation, IPS."""

import math

import numpy as np

from slimfl.analysis import (
    SIX_WIDTH_COST_TABLE,
    ConvergenceParams,
    MaskedQuadraticSim,
    PowerObjective,
    estimate_data_skew,
    golden_section,
    gradient_noise_bound,
    ips_width_selection,
    optimal_st_weights,
    optimality_gap_bound,
    optimize_power_split,
    shard_gradient_variance,
    split_closed_form,
    split_closed_form_alt,
)
from slimfl.datasets import Shard, dirichlet_partition, synth_dataset

RNG = np.random.default_rng


def params_with(**overrides) -> ConvergenceParams:
    base = dict(
        strong_convexity=1.0,
        smoothness=1.0,
        grad_variance=1.0,
        init_distance_sq=1.0,
        decode_probs=(1.0, 1.0),
        st_weights=(0.5, 0.5),
    )
    base.update(overrides)
    return ConvergenceParams(**base)


class TestGradientNoiseBound:
    def test_zero_variance_gives_zero(self):
        assert gradient_noise_bound(params_with(grad_variance=0.0)) == 0.0

    def test_direct_substitution(self):
        assert gradient_noise_bound(params_with()) == 4.0

    def test_matches_symbolic_recomputation(self):
        rng = RNG(0)
        for _ in range(50):
            p2 = rng.uniform(0.05, 1.0)
            p1 = rng.uniform(p2, 1.0)
            w1 = rng.uniform(0.05, 0.95)
            delta = rng.uniform(0.0, 5.0)
            p = params_with(
                grad_variance=delta, decode_probs=(p1, p2), st_weights=(w1, 1 - w1)
            )
            expected = 4 * delta * (1 / p1 + 1 / p2) * (w1**2 + (1 - w1) ** 2)
            assert math.isclose(gradient_noise_bound(p), expected, rel_tol=1e-12)

    def test_diverges_when_weak_message_never_decodes(self):
        assert math.isinf(gradient_noise_bound(params_with(decode_probs=(0.5, 0.0))))

    def test_symmetric_in_decode_probs(self):
        a = gradient_noise_bound(params_with(decode_probs=(0.9, 0.4)))
        b = 4.0 * 1.0 * (1 / 0.4 + 1 / 0.9) * 0.5
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_minimized_at_equal_weights(self):
        rng = RNG(1)
        ref = gradient_noise_bound(params_with())
        for _ in range(200):
            w1 = rng.uniform(0.01, 0.99)
            assert gradient_noise_bound(params_with(st_weights=(w1, 1 - w1))) >= ref - 1e-12


class TestOptimalityGapBound:
    def test_direct_substitution(self):
        p = params_with(grad_variance=0.0)
        assert optimality_gap_bound(p, 1) == 0.5

    def test_vanishes_as_rounds_grow(self):
        p = params_with(smoothness=4.0, grad_variance=2.0, decode_probs=(0.8, 0.6))
        values = [optimality_gap_bound(p, t) for t in (1, 10, 100, 10_000, 10_000_000)]
        assert all(b > a for a, b in zip(values[1:], values))
        assert values[-1] < 1e-4

    def test_monotone_in_noise_and_start_distance(self):
        base = params_with(smoothness=2.0)
        noisier = params_with(smoothness=2.0, grad_variance=3.0)
        farther = params_with(smoothness=2.0, init_distance_sq=9.0)
        for t in (1, 7, 50):
            assert optimality_gap_bound(noisier, t) > optimality_gap_bound(base, t)
            assert optimality_gap_bound(farther, t) > optimality_gap_bound(base, t)


class TestOptimalStWeights:
    def test_two_widths(self):
        assert optimal_st_weights(2) == (0.5, 0.5)

    def test_single_width(self):
        assert optimal_st_weights(1) == (1.0,)

    def test_beats_random_simplex_points(self):
        rng = RNG(2)
        for n in (2, 3, 5):
            best = sum(w * w for w in optimal_st_weights(n))
            for _ in range(1000):
                w = rng.dirichlet(np.ones(n))
                assert best <= (w**2).sum() + 1e-12


class TestGoldenSection:
    def test_quadratic_minimum(self):
        assert abs(golden_section(lambda x: (x - 2.0) ** 2, 0.0, 5.0) - 2.0) < 1e-5

    def test_cosine_minimum(self):
        assert abs(golden_section(math.cos, 0.0, 2 * math.pi) - math.pi) < 1e-5


def reference_objective() -> PowerObjective:
    noise = 10 ** (-169 / 10) * 75e6
    return PowerObjective(
        effective_noise=noise * 100**2.5,
        sinr_threshold=0.667,
        total_power_w=10 ** (23 / 10) / 1000,
    )


class TestPowerSplit:
    def test_objective_floor_is_two(self):
        obj = reference_objective()
        for lam in np.linspace(obj.feasible_lower() + 1e-6, 1 - 1e-6, 100):
            assert obj.exact(lam) >= 2.0

    def test_exact_infinite_outside_feasible_region(self):
        obj = PowerObjective(effective_noise=0.1, sinr_threshold=2.0, total_power_w=1.0)
        assert math.isinf(obj.exact(0.55))  # below u/(1+u) = 2/3

    def test_taylor_convex_on_grid(self):
        obj = reference_objective()
        lo = obj.feasible_lower() + 1e-3
        grid = np.linspace(lo, 1 - 1e-3, 200)
        vals = np.array([obj.taylor(x) for x in grid])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert (second > -1e-12).all()

    def test_closed_form_limit_is_even_split(self):
        assert abs(split_closed_form(1e-12) - 0.5) < 1e-9

    def test_reference_split_matches_published_optimum(self):
        result = optimize_power_split(reference_objective())
        assert abs(result.lam_numeric - 0.662) < 0.005
        assert abs(result.lam_closed - 0.662) < 0.005

    def test_alternate_form_exceeds_one(self):
        for u in (0.01, 0.1, 0.667, 1.0, 5.0, 100.0):
            assert split_closed_form_alt(u) > 1.0

    def test_alternate_form_takes_its_limit_at_zero_rate(self):
        assert split_closed_form_alt(0.0) == 1.5
        assert abs(split_closed_form_alt(1e-6) - 1.5) < 1e-6

    def test_numeric_agrees_with_closed_form_when_expansion_valid(self):
        rng = RNG(3)
        count = 0
        while count < 20:
            u = rng.uniform(0.05, 2.0)
            power = rng.uniform(0.05, 1.0)
            noise = rng.uniform(1e-8, 1e-4)
            if noise * u * (1 + u) / power >= 1e-3:
                continue
            count += 1
            obj = PowerObjective(
                effective_noise=noise, sinr_threshold=u, total_power_w=power
            )
            result = optimize_power_split(obj)
            assert abs(result.lam_numeric - result.lam_closed) < 1e-2


class TestShardGradientVariance:
    def test_full_shard_batches_are_deterministic(self):
        # every draw equals the reference gradient, so the variance is zero
        rng = RNG(4)
        data = rng.normal(size=(10, 3))

        def grad_fn(indices):
            return data[np.asarray(indices)].mean(axis=0)

        indices = np.arange(10)
        reference = grad_fn(indices)
        value = shard_gradient_variance(grad_fn, indices, reference, 10, 20, RNG(5))
        assert value < 1e-30

    def test_matches_analytic_linear_regression_variance(self):
        # least-squares gradients have a closed-form sampling variance:
        # within-shard finite-population term plus the offset from the
        # all-data gradient
        rng = RNG(6)
        n, dim, batch = 40, 3, 8
        x = rng.normal(size=(n, dim))
        y = rng.normal(size=n)
        w_ref = rng.normal(size=dim)
        per_sample = (x @ w_ref - y)[:, None] * x  # (n, dim)

        def grad_fn(indices):
            idx = np.asarray(indices)
            return per_sample[idx].mean(axis=0)

        shard_idx = np.arange(20)  # first half of the data is the shard
        global_grad = per_sample.mean(axis=0)
        shard_grad = per_sample[shard_idx].mean(axis=0)
        centered = per_sample[shard_idx] - shard_grad
        pop_var = float((centered**2).sum(axis=1).mean())
        n_k = len(shard_idx)
        fpc = (n_k - batch) / (batch * (n_k - 1))
        offset = float(((shard_grad - global_grad) ** 2).sum())
        analytic = pop_var * fpc + offset

        estimate = shard_gradient_variance(
            grad_fn, shard_idx, global_grad, batch, 4000, RNG(7)
        )
        assert abs(estimate - analytic) / analytic < 0.05


class TestDataSkewEstimate:
    @staticmethod
    def logistic_zero_grad_fn(data_x, data_y, classes):
        # multinomial logistic gradient at the zero parameter point
        def grad_fn(indices):
            idx = np.asarray(indices)
            x, y = data_x[idx], data_y[idx]
            p = np.full((len(idx), classes), 1.0 / classes)
            p[np.arange(len(idx)), y] -= 1.0
            return (p.T @ x).ravel() / len(idx)

        return grad_fn

    def test_identical_singleton_shards_have_zero_skew(self):
        x = np.tile(RNG(8).normal(size=(1, 4)), (6, 1))
        y = np.zeros(6, dtype=np.int64)
        shards = [Shard(k, np.array([k]), np.array([1])) for k in range(6)]
        grad_fn = self.logistic_zero_grad_fn(x, y, 3)
        delta, spread = estimate_data_skew(grad_fn, shards, 8, 10, RNG(9))
        assert delta < 1e-30
        assert spread < 1e-30

    def test_skewed_partitions_raise_delta(self):
        wins = 0
        deltas = {0.1: [], 10.0: []}
        for seed in range(20):
            ds = synth_dataset(10, 100, 16, RNG(1000 + seed), spread=0.3)
            grad_fn = self.logistic_zero_grad_fn(ds.x, ds.y, 10)
            pair = {}
            for alpha in (0.1, 10.0):
                shards = dirichlet_partition(ds.y, 10, alpha, RNG(2000 + seed))
                delta, _ = estimate_data_skew(grad_fn, shards, 32, 8, RNG(3000 + seed))
                deltas[alpha].append(delta)
                pair[alpha] = delta
            wins += pair[0.1] > pair[10.0]
        assert np.mean(deltas[0.1]) > np.mean(deltas[10.0])
        assert wins >= 16


class TestIpsWidthSelection:
    def test_published_boundary_cases(self):
        assert ips_width_selection(23.0, SIX_WIDTH_COST_TABLE, 100.0) == "1/6x"
        assert ips_width_selection(382.0, SIX_WIDTH_COST_TABLE, 100.0) == "6/6x"

    def test_zero_target_picks_widest(self):
        assert ips_width_selection(0.001, SIX_WIDTH_COST_TABLE, 0.0) == "6/6x"

    def test_unreachable_target_returns_none(self):
        assert ips_width_selection(1.0, SIX_WIDTH_COST_TABLE, 1e9) is None

    def test_intermediate_selection(self):
        # 100 MFLOPS: 3/6x gives 103 IPS, 4/6x only 57.8
        assert ips_width_selection(100.0, SIX_WIDTH_COST_TABLE, 100.0) == "3/6x"


def small_sim(seed=0, n_devices=5, dim=4):
    rng = RNG(seed)
    first = np.zeros(dim, dtype=bool)
    first[: dim // 2] = True
    return MaskedQuadraticSim(
        targets=rng.normal(size=(n_devices, dim)),
        curvature=np.array([1.0, 1.2, 2.0, 2.4]),
        noise_scales=np.full(n_devices, 0.5),
        first_segment=first,
        st_weights=(0.5, 0.5),
        decode_probs=(0.9, 0.8),
    )


class TestMaskedQuadraticSim:
    def test_effective_curvature_blends_masks(self):
        sim = small_sim()
        np.testing.assert_allclose(sim.effective_curvature, [1.0, 1.2, 1.0, 1.2])
        assert sim.strong_convexity == 1.0
        assert sim.smoothness == 1.2

    def test_gap_zero_at_optimum(self):
        sim = small_sim()
        assert sim.objective_gap(sim.optimum) == 0.0
        assert sim.objective_gap(sim.optimum + 1.0) > 0.0

    def test_mean_gap_stays_under_bound(self):
        sim = small_sim(seed=1)
        theta0 = sim.optimum + 2.0
        params = sim.convergence_params(theta0)
        gaps = sim.run(theta0, rounds=200, n_runs=30, rng=RNG(2)).mean(axis=0)
        for t in range(1, 201):
            assert gaps[t - 1] <= optimality_gap_bound(params, t)
