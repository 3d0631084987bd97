"""Experiment configuration: sectioned key-value files, strictly validated.

Unknown sections or keys are rejected, every diagnostic names the offending
field as ``section.key``, and parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

from .channel import ChannelConfig, Rayleigh, Rician, Twdp
from .federation import FederationConfig
from .training import TrainConfig


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "synth"  # "synth" | "idx"
    alpha: float = 1.0
    classes: int = 10
    per_class: int = 1000
    test_per_class: int = 100
    dim: int = 784
    spread: float = 1.0
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    limit: int = 0  # cap on train samples for idx datasets; 0 = all


@dataclass(frozen=True)
class ModelConfig:
    hidden: tuple[int, ...] = (128,)
    width_ratios: tuple[float, ...] = (0.5, 1.0)


@dataclass(frozen=True)
class CostConfig:
    use_reference: bool = True
    bits_per_param: float = 32.0


@dataclass(frozen=True)
class AnalysisConfig:
    # curvature bounds are user-supplied: the bound needs them and a neural
    # cross-entropy objective does not expose its own
    strong_convexity: float = 1.0
    smoothness: float = 10.0
    init_distance_sq: float = 1.0
    grad_batches: int = 32
    lambda_samples: int = 41


@dataclass(frozen=True)
class ExperimentConfig:
    seeds: tuple[int, ...] = (0,)
    rounds: int = 300
    output_dir: str = "runs/out"
    eval_every: int = 1
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    federation: FederationConfig = field(default_factory=FederationConfig)
    costs: CostConfig = field(default_factory=CostConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)


def _parse_scalar(raw: str, kind: str, where: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if kind == "ints":
            return tuple(int(v) for v in raw.split(",") if v.strip() != "")
        if kind == "floats":
            return tuple(float(v) for v in raw.split(",") if v.strip() != "")
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}") from exc


# section -> key -> (type-tag, default getter)
_SCHEMA = {
    "experiment": {
        "seeds": "ints",
        "rounds": "int",
        "output_dir": "str",
        "eval_every": "int",
    },
    "dataset": {
        "kind": "str",
        "alpha": "float",
        "classes": "int",
        "per_class": "int",
        "test_per_class": "int",
        "dim": "int",
        "spread": "float",
        "train_images": "str",
        "train_labels": "str",
        "test_images": "str",
        "test_labels": "str",
        "limit": "int",
    },
    "model": {"hidden": "ints", "width_ratios": "floats"},
    "channel": {
        "distance_m": "float",
        "pathloss_exp": "float",
        "bandwidth_hz": "float",
        "total_power_w": "float",
        "total_power_dbm": "float",
        "noise_power_w": "float",
        "noise_psd_db_hz": "float",
        "rate_bps": "float",
        "rate_sinr_threshold": "float",
        "power_split": "float",
        "fading": "str",
        "rician_nu": "float",
        "rician_sigma": "float",
        "twdp_k": "float",
        "twdp_delta": "float",
        "normalize_fading": "bool",
    },
    "training": {
        "st_weights": "floats",
        "lr": "float",
        "lr_mode": "str",
        "strong_convexity": "float",
        "smoothness": "float",
        "optimizer": "str",
        "batch_size": "int",
        "algorithm": "str",
    },
    "federation": {
        "devices": "int",
        "local_iters": "int",
        "scheme": "str",
        "aggregation_weighting": "str",
        "vanilla_rate_mode": "str",
        "parallel_devices": "bool",
    },
    "costs": {"use_reference": "bool", "bits_per_param": "float"},
    "analysis": {
        "strong_convexity": "float",
        "smoothness": "float",
        "init_distance_sq": "float",
        "grad_batches": "int",
        "lambda_samples": "int",
    },
}


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{section}: unknown section")
        sections[section] = {}
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
            sections[section][key] = value.strip()
    return sections


def _get(sections, section, key, fallback=None):
    raw = sections.get(section, {}).get(key)
    if raw is None:
        return fallback
    return _parse_scalar(raw, _SCHEMA[section][key], f"{section}.{key}")


def _build_channel(sections) -> ChannelConfig:
    sec = sections.get("channel", {})
    base = ChannelConfig()

    if "total_power_w" in sec and "total_power_dbm" in sec:
        raise ConfigError("channel.total_power_w: conflicts with channel.total_power_dbm")
    power = _get(sections, "channel", "total_power_w", base.total_power_w)
    if "total_power_dbm" in sec:
        power = 10 ** (_get(sections, "channel", "total_power_dbm") / 10.0) / 1000.0

    bandwidth = _get(sections, "channel", "bandwidth_hz", base.bandwidth_hz)

    if "noise_power_w" in sec and "noise_psd_db_hz" in sec:
        raise ConfigError("channel.noise_power_w: conflicts with channel.noise_psd_db_hz")
    noise = _get(sections, "channel", "noise_power_w", base.noise_power_w)
    if "noise_psd_db_hz" in sec:
        noise = 10 ** (_get(sections, "channel", "noise_psd_db_hz") / 10.0) * bandwidth

    if "rate_bps" in sec and "rate_sinr_threshold" in sec:
        raise ConfigError("channel.rate_bps: conflicts with channel.rate_sinr_threshold")
    rate = _get(sections, "channel", "rate_bps", base.rate_bps)
    if "rate_sinr_threshold" in sec:
        u = _get(sections, "channel", "rate_sinr_threshold")
        rate = bandwidth * math.log2(1.0 + u)

    fading_name = _get(sections, "channel", "fading", "rayleigh").lower()
    normalize = _get(sections, "channel", "normalize_fading", False)
    if fading_name == "rayleigh":
        fading = Rayleigh()
    elif fading_name == "rician":
        fading = Rician(
            nu=_get(sections, "channel", "rician_nu", Rician.nu),
            sigma=_get(sections, "channel", "rician_sigma", Rician.sigma),
        )
        if normalize:
            fading = fading.normalized()
    elif fading_name == "twdp":
        fading = Twdp(
            k_factor=_get(sections, "channel", "twdp_k", Twdp.k_factor),
            delta=_get(sections, "channel", "twdp_delta", Twdp.delta),
        )
    else:
        raise ConfigError(f"channel.fading: unknown model {fading_name!r}")

    try:
        return ChannelConfig(
            distance_m=_get(sections, "channel", "distance_m", base.distance_m),
            pathloss_exp=_get(sections, "channel", "pathloss_exp", base.pathloss_exp),
            bandwidth_hz=bandwidth,
            total_power_w=power,
            noise_power_w=noise,
            rate_bps=rate,
            power_split=_get(sections, "channel", "power_split", base.power_split),
            fading=fading,
        )
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    sections = _read_sections(text)

    dataset = DatasetConfig(
        kind=_get(sections, "dataset", "kind", "synth"),
        alpha=_get(sections, "dataset", "alpha", 1.0),
        classes=_get(sections, "dataset", "classes", 10),
        per_class=_get(sections, "dataset", "per_class", 1000),
        test_per_class=_get(sections, "dataset", "test_per_class", 100),
        dim=_get(sections, "dataset", "dim", 784),
        spread=_get(sections, "dataset", "spread", 1.0),
        train_images=_get(sections, "dataset", "train_images", ""),
        train_labels=_get(sections, "dataset", "train_labels", ""),
        test_images=_get(sections, "dataset", "test_images", ""),
        test_labels=_get(sections, "dataset", "test_labels", ""),
        limit=_get(sections, "dataset", "limit", 0),
    )
    if dataset.kind not in ("synth", "idx"):
        raise ConfigError(f"dataset.kind: unknown kind {dataset.kind!r}")
    if dataset.kind == "idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            if not getattr(dataset, key):
                raise ConfigError(f"dataset.{key}: required when dataset.kind = idx")
    if dataset.alpha <= 0:
        raise ConfigError("dataset.alpha: must be positive")

    model = ModelConfig(
        hidden=_get(sections, "model", "hidden", (128,)),
        width_ratios=_get(sections, "model", "width_ratios", (0.5, 1.0)),
    )

    defaults = TrainConfig()
    training = TrainConfig(
        st_weights=_get(sections, "training", "st_weights", defaults.st_weights),
        width_ratios=model.width_ratios,
        lr=_get(sections, "training", "lr", defaults.lr),
        lr_mode=_get(sections, "training", "lr_mode", defaults.lr_mode),
        strong_convexity=_get(
            sections, "training", "strong_convexity", defaults.strong_convexity
        ),
        smoothness=_get(sections, "training", "smoothness", defaults.smoothness),
        optimizer=_get(sections, "training", "optimizer", defaults.optimizer),
        batch_size=_get(sections, "training", "batch_size", defaults.batch_size),
        algorithm=_get(sections, "training", "algorithm", defaults.algorithm),
    )
    try:
        training.validate()
    except ValueError as exc:
        raise ConfigError(f"training: {exc}") from exc

    fed_defaults = FederationConfig()
    federation = FederationConfig(
        n_devices=_get(sections, "federation", "devices", fed_defaults.n_devices),
        local_iters=_get(sections, "federation", "local_iters", fed_defaults.local_iters),
        scheme=_get(sections, "federation", "scheme", fed_defaults.scheme),
        aggregation_weighting=_get(
            sections, "federation", "aggregation_weighting", fed_defaults.aggregation_weighting
        ),
        vanilla_rate_mode=_get(
            sections, "federation", "vanilla_rate_mode", fed_defaults.vanilla_rate_mode
        ),
        parallel_devices=_get(
            sections, "federation", "parallel_devices", fed_defaults.parallel_devices
        ),
    )
    try:
        federation.validate()
    except ValueError as exc:
        raise ConfigError(f"federation.{exc}") from exc

    seeds = _get(sections, "experiment", "seeds", (0,))
    if not seeds:
        raise ConfigError("experiment.seeds: need at least one seed")
    rounds = _get(sections, "experiment", "rounds", 300)
    if rounds < 1:
        raise ConfigError("experiment.rounds: must be >= 1")
    eval_every = _get(sections, "experiment", "eval_every", 1)
    if eval_every < 1:
        raise ConfigError("experiment.eval_every: must be >= 1")

    costs = CostConfig(
        use_reference=_get(sections, "costs", "use_reference", True),
        bits_per_param=_get(sections, "costs", "bits_per_param", 32.0),
    )
    analysis = AnalysisConfig(
        strong_convexity=_get(sections, "analysis", "strong_convexity", 1.0),
        smoothness=_get(sections, "analysis", "smoothness", 10.0),
        init_distance_sq=_get(sections, "analysis", "init_distance_sq", 1.0),
        grad_batches=_get(sections, "analysis", "grad_batches", 32),
        lambda_samples=_get(sections, "analysis", "lambda_samples", 41),
    )
    if analysis.strong_convexity <= 0 or analysis.smoothness < analysis.strong_convexity:
        raise ConfigError("analysis.strong_convexity: need 0 < strong_convexity <= smoothness")

    return ExperimentConfig(
        seeds=seeds,
        rounds=rounds,
        output_dir=_get(sections, "experiment", "output_dir", "runs/out"),
        eval_every=eval_every,
        dataset=dataset,
        model=model,
        channel=_build_channel(sections),
        training=training,
        federation=federation,
        costs=costs,
        analysis=analysis,
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    chan, fading = cfg.channel, cfg.channel.fading
    fading_name = {"Rayleigh": "rayleigh", "Rician": "rician", "Twdp": "twdp"}[
        type(fading).__name__
    ]
    parser["experiment"] = {
        "seeds": ",".join(str(s) for s in cfg.seeds),
        "rounds": str(cfg.rounds),
        "output_dir": cfg.output_dir,
        "eval_every": str(cfg.eval_every),
    }
    parser["dataset"] = {
        "kind": cfg.dataset.kind,
        "alpha": repr(cfg.dataset.alpha),
        "classes": str(cfg.dataset.classes),
        "per_class": str(cfg.dataset.per_class),
        "test_per_class": str(cfg.dataset.test_per_class),
        "dim": str(cfg.dataset.dim),
        "spread": repr(cfg.dataset.spread),
        "train_images": cfg.dataset.train_images,
        "train_labels": cfg.dataset.train_labels,
        "test_images": cfg.dataset.test_images,
        "test_labels": cfg.dataset.test_labels,
        "limit": str(cfg.dataset.limit),
    }
    parser["model"] = {
        "hidden": ",".join(str(h) for h in cfg.model.hidden),
        "width_ratios": ",".join(repr(r) for r in cfg.model.width_ratios),
    }
    parser["channel"] = {
        "distance_m": repr(chan.distance_m),
        "pathloss_exp": repr(chan.pathloss_exp),
        "bandwidth_hz": repr(chan.bandwidth_hz),
        "total_power_w": repr(chan.total_power_w),
        "noise_power_w": repr(chan.noise_power_w),
        "rate_bps": repr(chan.rate_bps),
        "power_split": repr(chan.power_split),
        "fading": fading_name,
    }
    if isinstance(fading, Rician):
        parser["channel"]["rician_nu"] = repr(fading.nu)
        parser["channel"]["rician_sigma"] = repr(fading.sigma)
    elif isinstance(fading, Twdp):
        parser["channel"]["twdp_k"] = repr(fading.k_factor)
        parser["channel"]["twdp_delta"] = repr(fading.delta)
    parser["training"] = {
        "st_weights": ",".join(repr(w) for w in cfg.training.st_weights),
        "lr": repr(cfg.training.lr),
        "lr_mode": cfg.training.lr_mode,
        "strong_convexity": repr(cfg.training.strong_convexity),
        "smoothness": repr(cfg.training.smoothness),
        "optimizer": cfg.training.optimizer,
        "batch_size": str(cfg.training.batch_size),
        "algorithm": cfg.training.algorithm,
    }
    parser["federation"] = {
        "devices": str(cfg.federation.n_devices),
        "local_iters": str(cfg.federation.local_iters),
        "scheme": cfg.federation.scheme,
        "aggregation_weighting": cfg.federation.aggregation_weighting,
        "vanilla_rate_mode": cfg.federation.vanilla_rate_mode,
        "parallel_devices": str(cfg.federation.parallel_devices).lower(),
    }
    parser["costs"] = {
        "use_reference": str(cfg.costs.use_reference).lower(),
        "bits_per_param": repr(cfg.costs.bits_per_param),
    }
    parser["analysis"] = {
        "strong_convexity": repr(cfg.analysis.strong_convexity),
        "smoothness": repr(cfg.analysis.smoothness),
        "init_distance_sq": repr(cfg.analysis.init_distance_sq),
        "grad_batches": str(cfg.analysis.grad_batches),
        "lambda_samples": str(cfg.analysis.lambda_samples),
    }
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
