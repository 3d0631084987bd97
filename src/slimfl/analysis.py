"""Closed-form analysis: convergence bound, power-split optimum, data skew.

The optimality-gap bound for the aggregated training process is

    gap(t) <= (L / mu) * (mu * L * D1 + 2 * B) / (mu * t + 2L - mu)

with B = 4 * delta * (1/p1 + 1/p2) * sum(w_i^2), where delta is the mean
per-device stochastic-gradient variance, (p1, p2) the decode probabilities
of the two uplink messages, w the superposed-training weights, and D1 the
initial squared distance from the optimum.  The bound is paired here with
a synthetic strongly convex federation that can be simulated exactly, and
with a power-split optimizer that minimizes 1/p1 + 1/p2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import successive_thresholds
from .training import decayed_lr


@dataclass(frozen=True)
class ConvergenceParams:
    strong_convexity: float  # lower curvature bound (mu)
    smoothness: float  # upper curvature bound (L)
    grad_variance: float  # mean per-device stochastic-gradient variance
    init_distance_sq: float  # squared distance of the start point from the optimum
    decode_probs: tuple[float, float]
    st_weights: tuple[float, ...] = (0.5, 0.5)

    def __post_init__(self):
        if not 0.0 < self.strong_convexity <= self.smoothness:
            raise ValueError("need 0 < strong_convexity <= smoothness")
        if self.grad_variance < 0 or self.init_distance_sq < 0:
            raise ValueError("variances and distances must be nonnegative")
        p1, p2 = self.decode_probs
        # p2 == 0 is representable so the divergent-noise case can be reported
        if not 0.0 <= p2 <= p1 <= 1.0 or p1 == 0.0:
            raise ValueError("need 0 <= p2 <= p1 <= 1 with p1 > 0")


def gradient_noise_bound(params: ConvergenceParams) -> float:
    """Variance bound B on the aggregated gradient; +inf when the weaker
    message never decodes (its reweighting blows up)."""
    p1, p2 = params.decode_probs
    if p2 == 0.0:
        return math.inf
    weight_energy = sum(w * w for w in params.st_weights)
    return 4.0 * params.grad_variance * (1.0 / p1 + 1.0 / p2) * weight_energy


def optimality_gap_bound(params: ConvergenceParams, t: int) -> float:
    """Upper bound on E[F(theta_t)] - F* under the decayed step size."""
    if t < 1:
        raise ValueError("t starts at 1")
    mu, lsm = params.strong_convexity, params.smoothness
    b = gradient_noise_bound(params)
    return (lsm / mu) * (mu * lsm * params.init_distance_sq + 2.0 * b) / (mu * t + 2.0 * lsm - mu)


def optimal_st_weights(n_widths: int) -> tuple[float, ...]:
    """Equal weights minimize sum(w_i^2) on the simplex, tightening the bound."""
    if n_widths < 1:
        raise ValueError("need at least one width")
    return tuple([1.0 / n_widths] * n_widths)


@dataclass(frozen=True)
class PowerObjective:
    """Decode-cost objective D(lambda) = 1/p1 + 1/p2 as a function of the split."""

    effective_noise: float  # noise referred through the pathloss
    sinr_threshold: float  # required SINR per message
    total_power_w: float

    def feasible_lower(self) -> float:
        """Split below which the stronger message cannot clear the weaker one."""
        u = self.sinr_threshold
        return max(0.5, u / (1.0 + u))

    def exact(self, lam: float) -> float:
        powers = (lam * self.total_power_w, (1.0 - lam) * self.total_power_w)
        thresholds = successive_thresholds(powers, self.effective_noise, self.sinr_threshold)
        return float(np.exp(thresholds).sum())

    def taylor(self, lam: float) -> float:
        """First-order expansion, valid when both thresholds are small."""
        u = self.sinr_threshold
        p = self.total_power_w
        margin = lam * p / u - (1.0 - lam) * p
        if margin <= 0 or lam >= 1.0:
            return math.inf
        return 2.0 + self.effective_noise / margin + self.effective_noise * u / ((1.0 - lam) * p)


def golden_section(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Minimize a unimodal scalar function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


@dataclass(frozen=True)
class PowerSplitResult:
    lam_numeric: float  # argmin of the exact objective (authoritative)
    lam_closed: float  # stationary point of the first-order expansion
    lam_closed_alt: float  # alternate algebraic form; exceeds 1, kept for diagnostics


def split_closed_form(sinr_threshold: float) -> float:
    """Stationary point of the expanded objective: (u + sqrt(1+u)) / (1 + u + sqrt(1+u))."""
    u = sinr_threshold
    root = math.sqrt(1.0 + u)
    return (u + root) / (1.0 + u + root)


def split_closed_form_alt(sinr_threshold: float) -> float:
    """Rearranged variant (u + sqrt(1+u) - 1) / u; lies above 1 for any u > 0,
    and is its limit 1.5 at u = 0 (a zero-rate channel)."""
    u = sinr_threshold
    return (u + math.sqrt(1.0 + u) - 1.0) / u if u else 1.5


def optimize_power_split(obj: PowerObjective, tol: float = 1e-6) -> PowerSplitResult:
    """Golden-section minimum of the exact objective plus both closed forms."""
    lo = obj.feasible_lower()
    eps = 1e-9
    if lo + eps >= 1.0 - eps:
        raise ValueError("no feasible power split: required SINR too high for this budget")
    lam_numeric = golden_section(obj.exact, lo + eps, 1.0 - eps, tol)
    return PowerSplitResult(
        lam_numeric=lam_numeric,
        lam_closed=split_closed_form(obj.sinr_threshold),
        lam_closed_alt=split_closed_form_alt(obj.sinr_threshold),
    )


def shard_gradient_variance(
    grad_fn,
    indices: np.ndarray,
    reference_grad: np.ndarray,
    batch_size: int,
    n_batches: int,
    rng: np.random.Generator,
) -> float:
    """Mean squared deviation of minibatch gradients from a reference gradient.

    Batches are drawn without replacement from the shard; batch = full shard
    makes every draw deterministic.
    """
    indices = np.asarray(indices)
    size = min(batch_size, len(indices))
    total = 0.0
    for _ in range(n_batches):
        batch = rng.choice(indices, size=size, replace=False)
        diff = grad_fn(batch) - reference_grad
        total += float(diff @ diff)
    return total / n_batches


def estimate_data_skew(
    grad_fn,
    shards,
    batch_size: int,
    n_batches: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Estimate (delta_hat, sigma_spread) from minibatch gradients.

    Per-device variances are measured against the all-data gradient so that
    heterogeneous shards register as dispersion even when each shard is
    internally homogeneous; with identically distributed shards this reduces
    to plain sampling noise.  delta_hat is the mean of the per-device
    variances; sigma_spread is the variance (over devices) of their square
    roots, reported as a diagnostic.
    """
    all_indices = np.concatenate([np.asarray(s.indices) for s in shards])
    reference = grad_fn(np.sort(all_indices))
    sigmas_sq = np.array(
        [
            shard_gradient_variance(grad_fn, s.indices, reference, batch_size, n_batches, rng)
            for s in shards
        ]
    )
    delta_hat = float(sigmas_sq.mean())
    sigmas = np.sqrt(sigmas_sq)
    sigma_spread = float(((sigmas - sigmas.mean()) ** 2).mean())
    return delta_hat, sigma_spread


# Per-image compute cost (MFLOPS) of the six-width reference profile,
# ascending widths; used for throughput-driven width selection.
SIX_WIDTH_COST_TABLE = (
    ("1/6x", 0.23),
    ("2/6x", 0.45),
    ("3/6x", 0.97),
    ("4/6x", 1.73),
    ("5/6x", 2.71),
    ("6/6x", 3.82),
)


def ips_width_selection(r_peak_mflops: float, cost_table, ips_target: float) -> str | None:
    """Widest width whose images-per-second meets the target, or None.

    IPS = peak compute rate / per-image cost.  A tiny relative slack guards
    exact boundaries against float division.
    """
    if not cost_table:
        raise ValueError("cost_table must be nonempty")
    for label, cost in reversed(list(cost_table)):
        ips = r_peak_mflops / cost
        if ips >= ips_target - 1e-9 * max(1.0, abs(ips_target)):
            return label
    return None


@dataclass(frozen=True, eq=False)
class MaskedQuadraticSim:
    """Synthetic strongly convex federation with exactly known constants.

    Each device k holds the quadratic 0.5 (theta - a_k)' diag(m * A) (theta - a_k)
    where m blends the two width masks with the superposed-training weights.
    Stochastic gradients add isotropic noise of known total variance, the
    uplink decodes each device's two segments with probabilities (p1, p2),
    and the server reweights segment sums by the expected decode counts.
    Everything the gap bound needs (mu, L, delta, theta*, F*) is analytic.
    """

    targets: np.ndarray  # (K, n) per-device quadratic centers
    curvature: np.ndarray  # (n,) diagonal of A
    noise_scales: np.ndarray  # (K,) per-device noise: E||noise||^2 = scale^2
    first_segment: np.ndarray  # (n,) bool, coordinates of the half-width mask
    st_weights: tuple[float, float] = (0.5, 0.5)
    decode_probs: tuple[float, float] = (0.9, 0.8)

    @cached_property
    def blend(self) -> np.ndarray:
        """Per-coordinate weight m: w1+w2 on the first segment, w2 outside."""
        w1, w2 = self.st_weights
        return np.where(self.first_segment, w1 + w2, w2)

    @cached_property
    def effective_curvature(self) -> np.ndarray:
        return self.blend * self.curvature

    @property
    def strong_convexity(self) -> float:
        return float(self.effective_curvature.min())

    @property
    def smoothness(self) -> float:
        return float(self.effective_curvature.max())

    @property
    def optimum(self) -> np.ndarray:
        return self.targets.mean(axis=0)

    @property
    def grad_variance(self) -> float:
        return float((self.noise_scales**2).mean())

    def convergence_params(self, theta0: np.ndarray) -> ConvergenceParams:
        gap0 = theta0 - self.optimum
        return ConvergenceParams(
            strong_convexity=self.strong_convexity,
            smoothness=self.smoothness,
            grad_variance=self.grad_variance,
            init_distance_sq=float(gap0 @ gap0),
            decode_probs=self.decode_probs,
            st_weights=self.st_weights,
        )

    def objective_gap(self, theta: np.ndarray) -> np.ndarray:
        """F(theta) - F*, valid for a batch of iterates (..., n)."""
        diff = theta - self.optimum
        return 0.5 * (diff**2 * self.effective_curvature).sum(axis=-1)

    def run(self, theta0: np.ndarray, rounds: int, n_runs: int, rng: np.random.Generator):
        """Simulate n_runs trajectories; returns gaps of shape (n_runs, rounds)."""
        n_devices, dim = self.targets.shape
        p1, p2 = self.decode_probs
        w1, w2 = self.st_weights
        blend = self.blend
        seg1 = self.first_segment.astype(np.float64)
        seg2 = 1.0 - seg1
        noise_sd = self.noise_scales[:, None] / math.sqrt(dim)

        theta = np.broadcast_to(theta0, (n_runs, dim)).copy()
        gaps = np.empty((n_runs, rounds))
        for t in range(1, rounds + 1):
            gaps[:, t - 1] = self.objective_gap(theta)
            raw = self.curvature * (theta[:, None, :] - self.targets)  # (runs, K, n)
            raw = raw + rng.normal(size=(n_runs, n_devices, dim)) * noise_sd
            per_device = raw * blend
            draw = rng.random((n_runs, n_devices, 1))
            got_first = draw < p1  # single draw couples both segments
            got_both = draw < p2
            agg = (per_device * got_first * seg1).sum(axis=1) / (n_devices * p1)
            agg += (per_device * got_both * seg2).sum(axis=1) / (n_devices * p2)
            theta = theta - decayed_lr(self.strong_convexity, self.smoothness, t) * agg
        return gaps
