"""Uplink model: power-split superposition transmission with successive decoding.

Each device superposes two messages (the half-width segment at power
lambda*P, the remainder at (1-lambda)*P) onto one resource block.  The
receiver decodes the stronger message first, cancels it, then tries the
weaker one; failing an earlier message fails all later ones.  Decoding the
i-th message succeeds when the fading gain clears a threshold derived from
the Shannon rate condition, so under unit-mean exponential fading the
success probabilities have the closed form exp(-threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rayleigh:
    """Unit-mean exponential power gain."""


@dataclass(frozen=True)
class Rician:
    """Line-of-sight fading: amplitude follows a Rice law, gain is its square.

    Default parameters give a specular-to-diffuse ratio of 3.5 and mean gain
    nu^2 + 2 sigma^2 (about 0.4, not normalized).
    """

    nu: float = 0.5577
    sigma: float = 0.2106

    @property
    def k_factor(self) -> float:
        return self.nu**2 / (2.0 * self.sigma**2)

    @property
    def mean_power(self) -> float:
        return self.nu**2 + 2.0 * self.sigma**2

    def normalized(self) -> "Rician":
        """Rescaled copy with unit mean gain (same k_factor)."""
        s = math.sqrt(self.mean_power)
        return Rician(nu=self.nu / s, sigma=self.sigma / s)


@dataclass(frozen=True)
class Twdp:
    """Two specular waves plus diffuse power.

    k_factor = (V1^2 + V2^2) / (2 sigma_d^2); delta = 2 V1 V2 / (V1^2 + V2^2).
    Wave amplitudes are solved from these with total mean gain mean_power.
    """

    k_factor: float = 3.5
    delta: float = 0.1
    mean_power: float = 1.0

    def __post_init__(self):
        """Raise ValueError whose message starts with the offending field."""
        if not 0.0 <= self.k_factor < math.inf:
            raise ValueError("k_factor: must be finite and >= 0")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta: must lie in [0, 1]")
        if not 0.0 < self.mean_power < math.inf:
            raise ValueError("mean_power: must be positive and finite")

    def wave_parameters(self) -> tuple[float, float, float]:
        """(v1, v2, sigma_d) realizing this (k_factor, delta, mean_power)."""
        diffuse = self.mean_power / (1.0 + self.k_factor)  # = 2 sigma_d^2
        specular = self.mean_power - diffuse
        root = math.sqrt(max(0.0, 1.0 - self.delta**2))
        v1_sq = specular * (1.0 + root) / 2.0
        v2_sq = specular * (1.0 - root) / 2.0
        return math.sqrt(v1_sq), math.sqrt(v2_sq), math.sqrt(diffuse / 2.0)


FadingModel = Rayleigh | Rician | Twdp


def sample_fading(model: FadingModel, rng: np.random.Generator, size=None) -> np.ndarray | float:
    """Draw small-scale power gains chi from the given fading model."""
    if isinstance(model, Rayleigh):
        return rng.exponential(1.0, size=size)
    if isinstance(model, Rician):
        n1 = rng.normal(0.0, 1.0, size=size)
        n2 = rng.normal(0.0, 1.0, size=size)
        return (model.nu + model.sigma * n1) ** 2 + (model.sigma * n2) ** 2
    if isinstance(model, Twdp):
        v1, v2, sigma_d = model.wave_parameters()
        phi1 = rng.uniform(0.0, 2.0 * math.pi, size=size)
        phi2 = rng.uniform(0.0, 2.0 * math.pi, size=size)
        zr = rng.normal(0.0, sigma_d, size=size)
        zi = rng.normal(0.0, sigma_d, size=size)
        re = v1 * np.cos(phi1) + v2 * np.cos(phi2) + zr
        im = v1 * np.sin(phi1) + v2 * np.sin(phi2) + zi
        return re**2 + im**2
    raise TypeError(f"unknown fading model {model!r}")


@dataclass(frozen=True)
class ChannelConfig:
    distance_m: float = 100.0
    pathloss_exp: float = 2.5
    bandwidth_hz: float = 75e6
    total_power_w: float = 10 ** (23 / 10) / 1000  # 23 dBm
    noise_power_w: float = 10 ** (-169 / 10) * 75e6  # -169 dB/Hz over the band
    rate_bps: float = 75e6 * math.log2(1.667)  # per-message target rate
    power_split: float = 0.662
    fading: FadingModel = Rayleigh()

    def __post_init__(self):
        """Raise ValueError whose message starts with the offending field."""
        positive = ("distance_m", "pathloss_exp", "bandwidth_hz", "total_power_w", "noise_power_w")
        for name in positive:
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name}: must be positive and finite")
        if not 0 <= self.rate_bps < math.inf:
            raise ValueError("rate_bps: must be finite and >= 0")
        if not 0.5 < self.power_split <= 1.0:
            raise ValueError("power_split: must lie in (0.5, 1] so the first message is stronger")
        self.sinr_threshold_at(self.rate_bps)  # raises if the threshold overflows

    @property
    def effective_noise(self) -> float:
        """Noise referred through the pathloss: noise_power * distance^exponent."""
        return self.noise_power_w * self.distance_m**self.pathloss_exp

    def sinr_threshold_at(self, rate_bps: float) -> float:
        """Minimum SINR for a message at ``rate_bps``: 2^(rate/bandwidth) - 1.

        Raises a ValueError starting with ``rate_bps`` when it overflows.
        """
        try:
            return 2.0 ** (rate_bps / self.bandwidth_hz) - 1.0
        except OverflowError:
            raise ValueError(
                f"rate_bps: a message at {rate_bps:g} bit/s over bandwidth_hz = "
                f"{self.bandwidth_hz:g} needs an SINR of 2^{rate_bps / self.bandwidth_hz:g}, "
                "beyond floating point"
            ) from None

    @property
    def sinr_threshold(self) -> float:
        """Minimum SINR for the target rate."""
        return self.sinr_threshold_at(self.rate_bps)

    @property
    def powers(self) -> tuple[float, float]:
        return (
            self.power_split * self.total_power_w,
            (1.0 - self.power_split) * self.total_power_w,
        )


def rate_for_sinr_threshold(sinr_threshold: float, bandwidth_hz: float) -> float:
    """Target rate whose decode condition is exactly the given SINR threshold."""
    return bandwidth_hz * math.log2(1.0 + sinr_threshold)


def sinr(cfg: ChannelConfig, chi: float, index: int) -> float:
    """SINR of message `index` (0-based); later messages interfere, the last sees none."""
    powers = cfg.powers
    gain = chi * cfg.distance_m ** (-cfg.pathloss_exp)
    interference = gain * sum(powers[index + 1 :])
    return gain * powers[index] / (cfg.noise_power_w + interference)


def successive_thresholds(
    powers, effective_noise: float, sinr_threshold: float
) -> np.ndarray:
    """Fading gain needed to decode messages 1..i jointly, for each i.

    An entry is +inf when some message up to i cannot be decoded at any
    gain (its power does not clear the residual interference).
    """
    if sinr_threshold == 0.0:
        return np.zeros(len(powers))
    per_message = []
    for j, p in enumerate(powers):
        interference = sum(powers[j + 1 :])
        margin = p / sinr_threshold - interference
        per_message.append(effective_noise / margin if margin > 0 else math.inf)
    return np.maximum.accumulate(np.asarray(per_message, dtype=np.float64))


def decode_thresholds(cfg: ChannelConfig) -> np.ndarray:
    return successive_thresholds(cfg.powers, cfg.effective_noise, cfg.sinr_threshold)


def decode_probabilities(cfg: ChannelConfig) -> np.ndarray:
    """Closed-form success probabilities [p1, p2]; exponential fading only."""
    if not isinstance(cfg.fading, Rayleigh):
        raise ValueError(
            "closed-form decode probabilities need Rayleigh fading; "
            "use decode_levels() on sampled draws for other models"
        )
    thresholds = decode_thresholds(cfg)
    return np.exp(-thresholds)


def decode_levels(chi: np.ndarray | float, thresholds: np.ndarray) -> np.ndarray:
    """How many messages each fading draw decodes, in order: the count of
    successive thresholds it reaches (0 none, 1 the first, 2 both)."""
    return (np.asarray(chi)[..., None] >= thresholds).sum(-1)


def config_for_decode_probs(
    p1: float,
    p2: float,
    *,
    sinr_threshold: float = 0.667,
    total_power_w: float = 10 ** (23 / 10) / 1000,
    distance_m: float = 100.0,
    pathloss_exp: float = 2.5,
    bandwidth_hz: float = 75e6,
    fading: FadingModel = Rayleigh(),
) -> ChannelConfig:
    """Back-solve power split and noise so Rayleigh decoding hits (p1, p2).

    Useful for pinning good/poor channel scenarios in experiments.
    """
    if not 0.0 < p2 <= p1 < 1.0:
        raise ValueError("need 0 < p2 <= p1 < 1")
    tau1 = -math.log(p1)
    tau2 = -math.log(p2)
    ratio = tau1 / tau2
    odds = 1.0 / ratio + sinr_threshold  # lambda / (1 - lambda)
    lam = odds / (1.0 + odds)
    p2_w = (1.0 - lam) * total_power_w
    effective_noise = tau2 * p2_w / sinr_threshold
    noise_power = effective_noise / distance_m**pathloss_exp
    return ChannelConfig(
        distance_m=distance_m,
        pathloss_exp=pathloss_exp,
        bandwidth_hz=bandwidth_hz,
        total_power_w=total_power_w,
        noise_power_w=noise_power,
        rate_bps=rate_for_sinr_threshold(sinr_threshold, bandwidth_hz),
        power_split=lam,
        fading=fading,
    )
