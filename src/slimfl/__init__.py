"""Federated learning over width-slimmable networks with a superposition-coded uplink."""

from .analysis import (
    ConvergenceParams,
    MaskedQuadraticSim,
    PowerObjective,
    PowerSplitResult,
    estimate_data_skew,
    golden_section,
    gradient_noise_bound,
    ips_width_selection,
    optimal_st_weights,
    optimality_gap_bound,
    optimize_power_split,
)
from .channel import (
    ChannelConfig,
    Rayleigh,
    Rician,
    Twdp,
    config_for_decode_probs,
    decode_levels,
    decode_probabilities,
    decode_thresholds,
    sample_fading,
    sinr,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config, serialize_config
from .datasets import Dataset, Shard, dirichlet_partition, load_idx, synth_dataset, write_idx
from .federation import FederatedRun, FederationConfig, aggregate, evaluate
from .metrics import CostModel, RoundMetrics, detect_convergence, energy_report
from .rng import stream
from .slimnet import (
    LayerSpec,
    Layout,
    ModelCost,
    SlimmableParams,
    WidthMask,
    backward,
    build_mask,
    complement_bits,
    forward,
    init_params,
    model_cost,
)
from .training import (
    LocalOptimizer,
    StepResult,
    TrainConfig,
    cross_entropy,
    ipkd_loss,
    sandwich_step,
    superposed_step,
    widthwise_step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
