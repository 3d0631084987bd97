"""SINR, successive-decoding thresholds, closed-form vs Monte-Carlo decoding."""

import math

import numpy as np
import pytest

from slimfl.channel import (
    ChannelConfig,
    Rayleigh,
    Rician,
    Twdp,
    config_for_decode_probs,
    decode_levels,
    decode_probabilities,
    decode_thresholds,
    rate_for_sinr_threshold,
    sample_fading,
    sinr,
    successive_thresholds,
)

RNG = np.random.default_rng


def reference_config(**overrides) -> ChannelConfig:
    defaults = dict(
        distance_m=100.0,
        pathloss_exp=2.5,
        bandwidth_hz=75e6,
        total_power_w=10 ** (23 / 10) / 1000,
        noise_power_w=10 ** (-169 / 10) * 75e6,
        rate_bps=rate_for_sinr_threshold(0.667, 75e6),
        power_split=0.662,
    )
    defaults.update(overrides)
    return ChannelConfig(**defaults)


class TestSinr:
    def test_zero_fading_gives_zero(self):
        cfg = reference_config()
        assert sinr(cfg, 0.0, 0) == 0.0
        assert sinr(cfg, 0.0, 1) == 0.0

    def test_last_message_sees_no_interference(self):
        cfg = reference_config()
        chi = 2.0
        gain = chi * cfg.distance_m ** (-cfg.pathloss_exp)
        expected = gain * cfg.powers[1] / cfg.noise_power_w
        assert math.isclose(sinr(cfg, chi, 1), expected, rel_tol=1e-12)

    def test_reference_values_match_direct_recomputation(self):
        cfg = reference_config()
        chi = 1.0
        gain = 1e-5  # 100 m at exponent 2.5
        p1, p2 = cfg.powers
        gamma1 = gain * p1 / (cfg.noise_power_w + gain * p2)
        gamma2 = gain * p2 / cfg.noise_power_w
        assert math.isclose(sinr(cfg, chi, 0), gamma1, rel_tol=1e-12)
        assert math.isclose(sinr(cfg, chi, 1), gamma2, rel_tol=1e-12)
        # sanity of the hand numbers themselves
        assert 1.9 < gamma1 < 2.0
        assert 700 < gamma2 < 730

    def test_powers_match_published_split(self):
        p1, p2 = reference_config().powers
        assert abs(p1 * 1000 - 132.1) < 0.1
        assert abs(p2 * 1000 - 67.4) < 0.1


class TestThresholds:
    def test_zero_rate_decodes_everything(self):
        cfg = reference_config(rate_bps=0.0)
        np.testing.assert_array_equal(decode_thresholds(cfg), [0.0, 0.0])
        np.testing.assert_array_equal(decode_probabilities(cfg), [1.0, 1.0])

    def test_infeasible_power_split_gives_zero_probability(self):
        # required SINR 2.0 with split 0.6: message 1 cannot clear message 2
        cfg = reference_config(
            rate_bps=rate_for_sinr_threshold(2.0, 75e6), power_split=0.6
        )
        thresholds = decode_thresholds(cfg)
        assert math.isinf(thresholds[0]) and math.isinf(thresholds[1])
        np.testing.assert_array_equal(decode_probabilities(cfg), [0.0, 0.0])

    def test_thresholds_nondecreasing(self):
        rng = RNG(0)
        for _ in range(50):
            powers = np.sort(rng.uniform(0.1, 1.0, size=3))[::-1]
            t = successive_thresholds(powers, rng.uniform(0.01, 1.0), rng.uniform(0.1, 3.0))
            assert (t[:-1] <= t[1:]).all()  # inf <= inf counts as nondecreasing

    def test_probability_decreasing_in_rate_and_noise(self):
        base = reference_config(noise_power_w=1e-5)
        p_base = decode_probabilities(base)
        higher_rate = reference_config(
            noise_power_w=1e-5, rate_bps=rate_for_sinr_threshold(0.9, 75e6)
        )
        noisier = reference_config(noise_power_w=2e-5)
        assert (decode_probabilities(higher_rate) < p_base).all()
        assert (decode_probabilities(noisier) < p_base).all()

    def test_all_power_to_first_message_limit(self):
        cfg = reference_config(power_split=1.0)
        probs = decode_probabilities(cfg)
        expected_p1 = math.exp(-cfg.effective_noise * cfg.sinr_threshold / cfg.total_power_w)
        assert math.isclose(probs[0], expected_p1, rel_tol=1e-12)
        assert probs[1] == 0.0

    def test_closed_form_requires_exponential_fading(self):
        cfg = reference_config()
        cfg = ChannelConfig(**{**cfg.__dict__, "fading": Rician()})
        with pytest.raises(ValueError, match="Rayleigh"):
            decode_probabilities(cfg)


class TestClosedFormAgainstMonteCarlo:
    def test_twenty_random_feasible_configs(self):
        rng = RNG(7)
        n = 10**6
        checked = 0
        while checked < 20:
            cfg = reference_config(
                noise_power_w=10 ** rng.uniform(-9, -4),
                rate_bps=rate_for_sinr_threshold(rng.uniform(0.1, 1.5), 75e6),
                power_split=rng.uniform(0.55, 0.95),
                total_power_w=rng.uniform(0.05, 0.5),
            )
            probs = decode_probabilities(cfg)
            if not (0.02 < probs[1] <= probs[0] < 0.995):
                continue
            checked += 1
            draws = rng.exponential(1.0, size=n)
            thresholds = decode_thresholds(cfg)
            for p, tau in zip(probs, thresholds):
                freq = (draws >= tau).mean()
                se = math.sqrt(p * (1 - p) / n)
                assert abs(freq - p) < 3 * se + 1e-12


class TestFadingModels:
    def test_rayleigh_unit_mean(self):
        draws = sample_fading(Rayleigh(), RNG(1), size=10**6)
        assert abs(draws.mean() - 1.0) < 0.003

    def test_rician_mean_power_identity(self):
        model = Rician()
        assert abs(model.k_factor - 3.5) < 0.01
        draws = sample_fading(model, RNG(2), size=10**6)
        assert abs(draws.mean() - model.mean_power) < 0.002
        assert abs(model.mean_power - 0.3997) < 1e-3

    def test_rician_normalized_keeps_k_factor(self):
        unit = Rician().normalized()
        assert abs(unit.mean_power - 1.0) < 1e-12
        assert abs(unit.k_factor - Rician().k_factor) < 1e-12

    def test_twdp_k_factor_recovered_by_moment_matching(self):
        model = Twdp(k_factor=3.5, delta=0.1)
        draws = sample_fading(model, RNG(3), size=10**6)
        m1 = draws.mean()
        m2 = (draws**2).mean()
        # invert the analytic first two moments for (specular, diffuse) power
        specular_sq = (2 * m1**2 - m2) / (1 - model.delta**2 / 2)
        specular = math.sqrt(specular_sq)
        diffuse = m1 - specular
        k_hat = specular / diffuse
        assert abs(k_hat - 3.5) / 3.5 < 0.05

    def test_twdp_wave_parameters_satisfy_definitions(self):
        model = Twdp(k_factor=3.5, delta=0.1)
        v1, v2, sigma_d = model.wave_parameters()
        assert abs((v1**2 + v2**2) / (2 * sigma_d**2) - 3.5) < 1e-12
        assert abs(2 * v1 * v2 / (v1**2 + v2**2) - 0.1) < 1e-12
        assert abs(v1**2 + v2**2 + 2 * sigma_d**2 - 1.0) < 1e-12


class TestDecode:
    def draw_levels(self, cfg, seed, n):
        chi = sample_fading(cfg.fading, RNG(seed), size=n)
        return chi, decode_levels(chi, decode_thresholds(cfg))

    def test_infeasible_never_decodes(self):
        cfg = reference_config(
            rate_bps=rate_for_sinr_threshold(2.0, 75e6), power_split=0.6
        )
        _, levels = self.draw_levels(cfg, 4, 200)
        assert (levels == 0).all()

    def test_zero_rate_always_decodes_both(self):
        _, levels = self.draw_levels(reference_config(rate_bps=0.0), 5, 200)
        assert (levels == 2).all()

    def test_outcome_frequencies_match_closed_form(self):
        cfg = config_for_decode_probs(0.7, 0.5)
        probs = decode_probabilities(cfg)
        np.testing.assert_allclose(probs, [0.7, 0.5], atol=1e-12)
        n = 10**5
        _, levels = self.draw_levels(cfg, 6, n)
        counts = np.bincount(levels, minlength=3)
        expected = np.array([1 - probs[0], probs[0] - probs[1], probs[1]])
        for freq, p in zip(counts / n, expected):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 3 * se

    def test_single_draw_couples_both_messages(self):
        # outcome is a prefix: decoding the second implies the first
        cfg = config_for_decode_probs(0.9, 0.3)
        chi, levels = self.draw_levels(cfg, 8, 500)
        thresholds = decode_thresholds(cfg)
        assert set(levels.tolist()) <= {0, 1, 2}
        assert (chi[levels == 2] >= thresholds[0]).all()
        np.testing.assert_array_equal(levels >= 1, chi >= thresholds[0])

    def test_keeps_the_shape_of_the_draws(self):
        thresholds = np.array([0.5, 1.5])
        assert decode_levels(1.0, thresholds) == 1
        chi = np.array([[0.1, 0.5, 1.0], [1.5, 2.0, 0.0]])
        np.testing.assert_array_equal(decode_levels(chi, thresholds), [[0, 1, 1], [2, 2, 0]])


class TestBackSolvedConfig:
    def test_round_trip_probabilities(self):
        for p1, p2 in ((0.9, 0.8), (0.7, 0.5), (0.99, 0.2), (0.5, 0.5)):
            cfg = config_for_decode_probs(p1, p2)
            np.testing.assert_allclose(decode_probabilities(cfg), [p1, p2], atol=1e-9)
            assert 0.5 < cfg.power_split <= 1.0

    def test_rejects_invalid_targets(self):
        with pytest.raises(ValueError):
            config_for_decode_probs(0.5, 0.7)
