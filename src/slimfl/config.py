"""Experiment configuration: sectioned key-value files, strictly validated.

The config dataclasses are the schema.  Every field of a section dataclass
is a key of the section of the same name (``[experiment]`` holds
``ExperimentConfig``'s own scalars), read and written by the codec of its
type; a key missing from the file takes the field's default.  Only
``[channel]`` has a hand-written builder, for its unit shorthands and the
fading model.  Unknown sections or keys are rejected, every diagnostic
names the offending field as ``section.key``, and parse -> serialize ->
parse is the identity.
"""

from __future__ import annotations

import configparser
import io
import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass

from .channel import ChannelConfig, Rayleigh, Rician, Twdp, rate_for_sinr_threshold
from .federation import FederationConfig, vanilla_threshold
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

    def validate(self) -> None:
        """Raise ValueError whose message starts with the offending field."""
        if self.kind not in ("synth", "idx"):
            raise ValueError(f"kind: unknown kind {self.kind!r}")
        if self.kind == "idx":
            for key in ("train_images", "train_labels", "test_images", "test_labels"):
                if not getattr(self, key):
                    raise ValueError(f"{key}: required when dataset.kind = idx")
        if self.alpha <= 0:
            raise ValueError("alpha: must be positive")
        for key in ("classes", "per_class", "test_per_class", "dim"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key}: must be >= 1")
        if self.limit < 0:
            raise ValueError("limit: must be >= 0 (0 keeps every sample)")


@dataclass(frozen=True)
class ModelConfig:
    # the width ratios are TrainConfig.width_ratios, set by [model] width_ratios
    hidden: tuple[int, ...] = (128,)

    def validate(self) -> None:
        """Raise ValueError whose message starts with the offending field."""
        if any(units < 1 for units in self.hidden):
            raise ValueError("hidden: every layer must have >= 1 unit")


@dataclass(frozen=True)
class CostConfig:
    use_reference: bool = True
    bits_per_param: float = 32.0

    def validate(self) -> None:
        """Raise ValueError whose message starts with the offending field."""
        if self.bits_per_param <= 0:
            raise ValueError("bits_per_param: must be positive")


@dataclass(frozen=True)
class AnalysisConfig:
    # curvature bounds are user-supplied: the bound needs them and a neural
    # cross-entropy objective does not expose its own
    strong_convexity: float = 1.0
    smoothness: float = 10.0
    init_distance_sq: float = 1.0
    grad_batches: int = 32
    lambda_samples: int = 41

    def validate(self) -> None:
        """Raise ValueError whose message starts with the offending field."""
        if self.strong_convexity <= 0 or self.smoothness < self.strong_convexity:
            raise ValueError("strong_convexity: need 0 < strong_convexity <= smoothness")
        if self.init_distance_sq < 0:
            raise ValueError("init_distance_sq: must be >= 0")
        if self.grad_batches < 1:
            raise ValueError("grad_batches: must be >= 1")
        if self.lambda_samples < 0:
            raise ValueError("lambda_samples: must be >= 0")


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

    def validate(self) -> None:
        """Check the ``[experiment]`` scalars; each section checks its own."""
        if not self.seeds:
            raise ValueError("seeds: need at least one seed")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError("seeds: a seed is repeated; each seed writes its own CSV")
        if self.rounds < 1:
            raise ValueError("rounds: must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every: must be >= 1")


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ValueError(raw)


def _tuple_of(parse):
    return lambda raw: tuple(parse(v) for v in raw.split(",") if v.strip() != "")


# field type -> (name in diagnostics, parse, format)
_CODECS = {
    int: ("int", int, str),
    float: ("finite float", _finite_float, repr),
    str: ("str", str, str),
    bool: ("bool", _bool, lambda v: str(v).lower()),
    tuple[int, ...]: ("ints", _tuple_of(int), lambda v: ",".join(map(str, v))),
    tuple[float, ...]: (
        "finite floats", _tuple_of(_finite_float), lambda v: ",".join(map(repr, v))
    ),
}

# INI names that differ from the field they set: (section, field) -> (section, key)
_RENAMED = {
    ("federation", "n_devices"): ("federation", "devices"),
    ("training", "width_ratios"): ("model", "width_ratios"),
}

_HINTS = typing.get_type_hints(ExperimentConfig)
# section -> the dataclass behind it, in file order; [experiment] holds
# ExperimentConfig's own scalars and [channel] has its own builder
_SECTIONS = {"experiment": ExperimentConfig} | {
    f.name: _HINTS[f.name] for f in fields(ExperimentConfig) if is_dataclass(_HINTS[f.name])
}


def _key_table() -> dict[tuple[str, str], tuple[str, str, tuple]]:
    """(INI section, key) -> (section, field, codec) of every field with a codec."""
    table = {}
    for section, cls in _SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if hints[f.name] in _CODECS:
                key = _RENAMED.get((section, f.name), (section, f.name))
                table[key] = (section, f.name, _CODECS[hints[f.name]])
    return table


_KEYS = _key_table()

# ChannelConfig field -> the unit shorthand that may set it instead
_SHORTHANDS = {
    "total_power_w": "total_power_dbm",
    "noise_power_w": "noise_psd_db_hz",
    "rate_bps": "rate_sinr_threshold",
}
# [channel] fading = name -> (model, {INI key: the model field it sets})
_FADING = {
    "rayleigh": (Rayleigh, {}),
    "rician": (Rician, {"rician_nu": "nu", "rician_sigma": "sigma"}),
    "twdp": (Twdp, {"twdp_k": "k_factor", "twdp_delta": "delta"}),
}
_MODEL_KEYS = [key for _, keys in _FADING.values() for key in keys]
# the keys that set a fading model's parameters; normalize_fading is Rician's
_FADING_KEYS = {"normalize_fading", *_MODEL_KEYS}
# the [channel] keys outside _KEYS: unit shorthands and the fading model
_CHANNEL_KEYS = {"fading": str, "normalize_fading": bool} | dict.fromkeys(
    (*_SHORTHANDS.values(), *_MODEL_KEYS), float
)


def _fading_reads(name: str) -> set[str]:
    """The fading keys that ``fading = name`` reads."""
    model, keys = _FADING[name]
    return {*keys, "normalize_fading"} if model is Rician else set(keys)


def _decode(raw: str, codec: tuple, where: str):
    kind, parse, _ = codec
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}") from exc


def _located(exc: ValueError, section: str, renamed: dict) -> ConfigError:
    """A dataclass check's "field: reason" message, with the field replaced by
    the ``section.key`` that set it; ``renamed`` is shaped like ``_RENAMED``."""
    name, _, reason = str(exc).partition(": ")
    key = renamed.get((section, name), (section, name))
    return ConfigError(f"{'.'.join(key)}: {reason}")


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{section}: unknown section")
        sections[section] = {}
        for key, value in parser.items(section):
            if (section, key) not in _KEYS and not (section == "channel" and key in _CHANNEL_KEYS):
                raise ConfigError(f"{section}.{key}: unknown key")
            sections[section][key] = value.strip()
    return sections


def _build_channel(values: dict, sec: dict[str, str]) -> ChannelConfig:
    """The channel from its decoded fields (``values``) and the rest of its section."""
    given = {
        key: _decode(raw, _CODECS[_CHANNEL_KEYS[key]], f"channel.{key}")
        for key, raw in sec.items()
        if key in _CHANNEL_KEYS
    }
    for name, shorthand in _SHORTHANDS.items():
        if name in sec and shorthand in sec:
            raise ConfigError(f"channel.{name}: conflicts with channel.{shorthand}")

    def from_db(key: str) -> float:
        try:
            ratio = 10 ** (given[key] / 10.0)
        except OverflowError:
            ratio = math.inf
        if not 0.0 < ratio < math.inf:
            raise ConfigError(f"channel.{key}: {sec[key]} dB is out of range")
        return ratio

    bandwidth = values.get("bandwidth_hz", ChannelConfig.bandwidth_hz)
    if "total_power_dbm" in given:
        values["total_power_w"] = from_db("total_power_dbm") / 1000.0
    if "noise_psd_db_hz" in given:
        values["noise_power_w"] = from_db("noise_psd_db_hz") * bandwidth
    if "rate_sinr_threshold" in given:
        if given["rate_sinr_threshold"] < 0:
            raise ConfigError("channel.rate_sinr_threshold: must be >= 0")
        values["rate_bps"] = rate_for_sinr_threshold(given["rate_sinr_threshold"], bandwidth)

    fading_name = given.get("fading", "rayleigh").lower()
    if fading_name not in _FADING:
        raise ConfigError(f"channel.fading: unknown model {fading_name!r}")
    model, keys = _FADING[fading_name]
    # a fading key the selected model does not read would set nothing
    unread = sorted(given.keys() & _FADING_KEYS - _fading_reads(fading_name))
    if unread:
        raise ConfigError(f"channel.{unread[0]}: fading = {fading_name} does not read it")
    try:
        fading = model(**{name: given[key] for key, name in keys.items() if key in given})
    except ValueError as exc:
        named = {("channel", name): ("channel", key) for key, name in keys.items()}
        raise _located(exc, "channel", named) from exc
    # only a Rician model's mean gain is left unnormalized
    if given.get("normalize_fading", False):
        if fading.mean_power == 0:
            raise ConfigError(f"channel.normalize_fading: {' and '.join(keys)} are 0")
        fading = fading.normalized()

    try:
        return ChannelConfig(**values, fading=fading)
    except ValueError as exc:
        # a field set through its shorthand is reported under the shorthand
        used = {("channel", n): ("channel", s) for n, s in _SHORTHANDS.items() if s in sec}
        raise _located(exc, "channel", used) from exc


def _validated(section: str, obj):
    validate = getattr(obj, "validate", None)  # sections without checks have none
    if validate is not None:
        try:
            validate()
        except ValueError as exc:
            raise _located(exc, section, _RENAMED) from exc
    return obj


def parse_config(text: str) -> ExperimentConfig:
    sections = _read_sections(text)
    given: dict[str, dict] = {section: {} for section in _SECTIONS}
    for (ini_section, key), (section, name, codec) in _KEYS.items():
        raw = sections.get(ini_section, {}).get(key)
        if raw is not None:
            given[section][name] = _decode(raw, codec, f"{ini_section}.{key}")
    parts = {
        section: _validated(section, cls(**given[section]))
        for section, cls in _SECTIONS.items()
        if section not in ("experiment", "channel")
    }
    parts["channel"] = _build_channel(given["channel"], sections.get("channel", {}))
    cfg = _validated("experiment", ExperimentConfig(**given["experiment"], **parts))
    fed, ds = cfg.federation, cfg.dataset
    if ds.kind == "synth" and ds.classes * ds.per_class < fed.n_devices:
        # at the default data size it is the device count that was set too high
        sized = {"classes", "per_class"} & sections.get("dataset", {}).keys()
        raise ConfigError(
            f"{'dataset.per_class' if sized else 'federation.devices'}: {ds.classes} classes x "
            f"{ds.per_class} per_class synthetic samples, fewer than {fed.n_devices} devices"
        )
    if fed.scheme in ("vanilla-1.0x", "vanilla-1.5x") and fed.vanilla_rate_mode != "same_rate":
        try:  # the full-width baseline sends twice a superposed message's payload
            vanilla_threshold(cfg.channel, 2.0)
        except ValueError as exc:
            reason = str(exc).partition(": ")[2]
            raise ConfigError(f"channel.rate_bps: {fed.scheme} doubles it; {reason}") from exc
    if fed.aggregation_weighting == "expected" and not isinstance(cfg.channel.fading, Rayleigh):
        raise ConfigError(
            "federation.aggregation_weighting: expected needs the closed-form decode "
            f"probabilities of Rayleigh fading, not channel.fading = "
            f"{type(cfg.channel.fading).__name__.lower()}"
        )
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def override(text: str, dotted: str, value: str) -> str:
    """The config text with ``section.key = value`` set, after checking that
    the text parses.

    The edit is the one a user would make to the file: a ``[channel]``
    field and its unit shorthand set one value, so setting either drops the
    other, and a new ``fading`` model drops the fading keys it does not read.
    Every other key keeps the text it has, so a value derived from another
    (a noise power from ``noise_psd_db_hz`` and ``bandwidth_hz``) follows it.
    """
    if "." not in dotted:
        raise ConfigError(f"sweep parameter {dotted!r}: use section.key form")
    section, key = dotted.split(".", 1)
    parse_config(text)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    if not parser.has_section(section):
        parser.add_section(section)
    if section == "channel":
        dropped = {option for pair in _SHORTHANDS.items() if key in pair for option in pair}
        if key == "fading" and value.lower() in _FADING:
            dropped |= _FADING_KEYS - _fading_reads(value.lower())
        for option in dropped:
            parser.remove_option(section, option)
    parser.set(section, key, value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def serialize_config(cfg: ExperimentConfig) -> str:
    sections: dict[str, dict[str, str]] = {name: {} for name in _SECTIONS}
    for (ini_section, key), (section, name, (_, _, fmt)) in _KEYS.items():
        part = cfg if section == "experiment" else getattr(cfg, section)
        sections[ini_section][key] = fmt(getattr(part, name))

    fading = cfg.channel.fading
    name = type(fading).__name__.lower()
    sections["channel"]["fading"] = name
    for key, field_name in _FADING[name][1].items():
        sections["channel"][key] = repr(getattr(fading, field_name))

    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
