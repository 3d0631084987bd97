"""Config parsing/serialization, CLI behavior, run determinism."""

import contextlib
import dataclasses
import hashlib
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_no_child_process, sampled_rounds, split_stacks
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slimfl import federation
from slimfl.channel import ChannelConfig, Rayleigh, Rician, Twdp, sample_fading
from slimfl.cli import main
from slimfl.config import (
    _CHANNEL_KEYS,
    _CODECS,
    _KEYS,
    _SECTIONS,
    ConfigError,
    DatasetConfig,
    ExperimentConfig,
    parse_config,
    serialize_config,
)
from slimfl.experiment import run_experiment
from slimfl.federation import SCHEMES, FederationConfig
from slimfl.metrics import write_metrics_csv
from slimfl import rng as rngmod

SMALL_RUN = """
[experiment]
seeds = 3
rounds = 12
output_dir = {out}

[dataset]
kind = synth
classes = 4
per_class = 60
test_per_class = 20
dim = 12
spread = 0.4
alpha = 0.5

[model]
hidden = 8

[training]
lr = 0.01
batch_size = 16

[federation]
devices = 3
scheme = slimfl
"""


def strict_json(text: str):
    """``text`` parsed as JSON, which has no Infinity or NaN."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestRngStreams:
    def test_same_key_same_stream(self):
        a = rngmod.stream(7, "fading", 2, 5).normal(size=4)
        b = rngmod.stream(7, "fading", 2, 5).normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_different_labels_decorrelate(self):
        a = rngmod.stream(7, "fading", 2, 5).normal(size=100)
        b = rngmod.stream(7, "fading", 2, 6).normal(size=100)
        c = rngmod.stream(7, "batch", 2, 5).normal(size=100)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_equal_labels_of_different_types_decorrelate(self):
        # 1 == 1.0 == True, but each repr names its own stream
        draws = [rngmod.stream(7, label).normal(size=8) for label in (1, 1.0, True)]
        for i in range(3):
            for j in range(i):
                assert not np.allclose(draws[i], draws[j])


def fading_draws(model, generators) -> bytes:
    return np.array([sample_fading(model, rng) for rng in generators]).tobytes()


FADING_MODELS = [Rayleigh(), Rician(), Twdp()]


class TestStreamFamily:
    """``StreamFamily`` yields ``rngmod.stream``'s generators, by bytes."""

    @settings(max_examples=150)
    @given(
        master=st.one_of(st.sampled_from([0, 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        tag=st.sampled_from([(), ("v-half",), ("v-full",)]),
        devices=st.integers(1, 64),
        rounds=st.lists(st.integers(0, 2**40), min_size=1, max_size=3),
        model=st.sampled_from(FADING_MODELS),
    )
    def test_matches_stream(self, master, tag, devices, rounds, model):
        family = rngmod.StreamFamily(master, [("fading", *tag, k) for k in range(devices)])
        for r in rounds:
            expected = (rngmod.stream(master, "fading", *tag, k, r) for k in range(devices))
            assert fading_draws(model, family.generators(r)) == fading_draws(model, expected)

    @pytest.mark.parametrize(
        "words",
        [
            [1, 2**32, 5],  # zero high half, then a zero low half
            [0, 0, 0, 0],
            [5, 6, 7, 8],
            [2**64 - 1, 3, 2**32, 7, 2**40 + 9, 11],
        ],
    )
    def test_vectorised_mixing_matches_seed_sequence(self, words):
        row = rngmod.uint32_words(words)
        pool, _ = rngmod.mix_entropy(np.array([row, row], dtype=np.uint32))
        expected = np.random.SeedSequence(words).generate_state(4, np.uint64)
        np.testing.assert_array_equal(rngmod.generate_state(pool), [expected, expected])

    def test_prefix_of_another_word_count_takes_stream(self, monkeypatch):
        # a label word below 2**32 is one uint32 word: device 2's prefix is shorter
        label_word = rngmod._label_word
        monkeypatch.setattr(
            rngmod, "_label_word", lambda label: 5 if label == 2 else label_word(label)
        )
        family = rngmod.StreamFamily(7, [("fading", k) for k in range(5)])
        assert family.mixed == [0, 1, 3, 4]
        for model in FADING_MODELS:
            expected = [rngmod.stream(7, "fading", k, 3) for k in range(5)]
            assert fading_draws(model, family.generators(3)) == fading_draws(model, expected)


class TestConfigParsing:
    def test_round_trip_is_identity(self):
        cfg = parse_config(SMALL_RUN.format(out="runs/x"))
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_round_trip_preserves_fading_models(self):
        text = SMALL_RUN.format(out="runs/x") + "\n[channel]\nfading = rician\n"
        cfg = parse_config(text)
        assert isinstance(cfg.channel.fading, Rician)
        assert parse_config(serialize_config(cfg)) == cfg
        text = SMALL_RUN.format(out="runs/x") + "\n[channel]\nfading = twdp\ntwdp_k = 3.5\n"
        cfg = parse_config(text)
        assert isinstance(cfg.channel.fading, Twdp)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ConfigError, match="dataset.plasma"):
            parse_config("[dataset]\nplasma = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="quantum"):
            parse_config("[quantum]\nx = 1\n")

    def test_missing_idx_path_names_field(self):
        with pytest.raises(ConfigError, match="dataset.train_images"):
            parse_config("[dataset]\nkind = idx\n")

    def test_bad_scalar_names_field(self):
        with pytest.raises(ConfigError, match="federation.devices"):
            parse_config("[federation]\ndevices = many\n")

    def test_conflicting_power_keys_rejected(self):
        text = "[channel]\ntotal_power_w = 0.2\ntotal_power_dbm = 23\n"
        with pytest.raises(ConfigError, match="total_power"):
            parse_config(text)

    def test_dbm_and_psd_shorthands(self):
        text = "[channel]\ntotal_power_dbm = 23\nnoise_psd_db_hz = -169\n"
        cfg = parse_config(text)
        assert abs(cfg.channel.total_power_w - 10 ** 2.3 / 1000) < 1e-12
        assert abs(cfg.channel.noise_power_w - 10 ** (-16.9) * 75e6) < 1e-18

    def test_rate_shorthand(self):
        text = "[channel]\nrate_sinr_threshold = 0.667\n"
        cfg = parse_config(text)
        assert abs(cfg.channel.sinr_threshold - 0.667) < 1e-12

    def test_doubled_rate_checked_only_where_sent(self):
        # at 100 kHz the rate's own threshold is finite, twice the rate's is not
        base = SMALL_RUN.format(out="runs/x") + "\n[channel]\nbandwidth_hz = 1e5\n"
        assert parse_config(base).channel.sinr_threshold > 0
        for scheme in ("vanilla-0.5x", "vanilla-1.0x\nvanilla_rate_mode = same_rate"):
            parse_config(base.replace("scheme = slimfl", f"scheme = {scheme}"))
        with pytest.raises(ConfigError, match="^channel.rate_bps: vanilla-1.5x doubles it"):
            parse_config(base.replace("scheme = slimfl", "scheme = vanilla-1.5x"))

    def test_invalid_st_weights_sum(self):
        with pytest.raises(ConfigError, match="training"):
            parse_config("[training]\nst_weights = 0.4,0.4\n")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[experiment]\nseeds =\n", "experiment.seeds"),
            # a seed's stream keeps its low 64 bits: these would alias 0 and 2**64 - 1
            ("[experiment]\nseeds = 0,18446744073709551616\n", "experiment.seeds"),
            ("[experiment]\nseeds = -1\n", "experiment.seeds"),
            ("[experiment]\nrounds = 0\n", "experiment.rounds"),
            ("[experiment]\neval_every = 0\n", "experiment.eval_every"),
            ("[dataset]\nkind = csv\n", "dataset.kind"),
            ("[dataset]\nalpha = 0\n", "dataset.alpha"),
            ("[dataset]\nalpha = nan\n", "dataset.alpha"),
            ("[dataset]\ndim = 0\n", "dataset.dim"),
            ("[dataset]\nclasses = 0\n", "dataset.classes"),
            ("[dataset]\nper_class = 0\n", "dataset.per_class"),
            ("[dataset]\ntest_per_class = 0\n", "dataset.test_per_class"),
            ("[dataset]\nlimit = -1\n", "dataset.limit"),
            (
                "[dataset]\nclasses = 2\nper_class = 1\n[federation]\ndevices = 3\n",
                "dataset.per_class",
            ),
            ("[federation]\ndevices = 10001\n", "federation.devices"),
            ("[model]\nhidden = 0\n", "model.hidden"),
            ("[model]\nhidden = 32,-4\n", "model.hidden"),
            ("[model]\nwidth_ratios = 1.0,0.5\n", "model.width_ratios"),
            ("[model]\nwidth_ratios = 0.25,0.5\n", "model.width_ratios"),
            ("[model]\nwidth_ratios = -0.5,1.0\n", "model.width_ratios"),
            ("[training]\nst_weights = 1.0\n", "training.st_weights"),
            ("[training]\nst_weights = -0.5,1.5\n", "training.st_weights"),
            ("[training]\nst_weights = 0.4,0.4\n", "training.st_weights"),
            ("[training]\nlr = 0\n", "training.lr"),
            ("[training]\nlr = nan\n", "training.lr"),
            ("[training]\nlr_mode = cyclic\n", "training.lr_mode"),
            ("[training]\nlr_mode = decay\n", "training.lr_mode"),
            ("[training]\noptimizer = lion\n", "training.optimizer"),
            ("[training]\noptimizer = adamw\n", "training.optimizer"),
            ("[training]\nst_weights = 0.9,0.9\n", "training.st_weights"),
            ("[training]\nbatch_size = 0\n", "training.batch_size"),
            ("[training]\nalgorithm = greedy\n", "training.algorithm"),
            ("[federation]\ndevices = 0\n", "federation.devices"),
            ("[federation]\nscheme = bogus\n", "federation.scheme"),
            (
                "[federation]\naggregation_weighting = expected\n[channel]\nfading = rician\n",
                "federation.aggregation_weighting",
            ),
            ("[channel]\ndistance_m = 0\n", "channel.distance_m"),
            ("[channel]\ndistance_m = inf\n", "channel.distance_m"),
            ("[channel]\npathloss_exp = -1\n", "channel.pathloss_exp"),
            ("[channel]\nbandwidth_hz = 0\n", "channel.bandwidth_hz"),
            ("[channel]\ntotal_power_w = 0\n", "channel.total_power_w"),
            ("[channel]\nnoise_power_w = 0\n", "channel.noise_power_w"),
            ("[channel]\nrate_bps = -1\n", "channel.rate_bps"),
            ("[channel]\npower_split = 0.5\n", "channel.power_split"),
            ("[channel]\nfading = nakagami\n", "channel.fading"),
            (
                "[channel]\nfading = rician\nnormalize_fading = true\n"
                "rician_nu = 0\nrician_sigma = 0\n",
                "channel.normalize_fading",
            ),
            ("[channel]\nrate_sinr_threshold = -0.5\n", "channel.rate_sinr_threshold"),
            ("[channel]\nfading = twdp\ntwdp_k = -1\n", "channel.twdp_k"),
            ("[channel]\nfading = twdp\ntwdp_delta = 5\n", "channel.twdp_delta"),
            ("[channel]\nbandwidth_hz = 1e-3\n", "channel.rate_bps"),
            ("[channel]\nnoise_psd_db_hz = -5000\n", "channel.noise_psd_db_hz"),
            ("[analysis]\nsmoothness = 0.5\n", "analysis.strong_convexity"),
            # a ZeroDivisionError in analyze, or a noise bound of 0.0 from no batches
            ("[analysis]\ngrad_batches = 0\n", "analysis.grad_batches"),
            ("[analysis]\ngrad_batches = -2\n", "analysis.grad_batches"),
            ("[analysis]\ninit_distance_sq = -1\n", "analysis.init_distance_sq"),
            ("[analysis]\nlambda_samples = -3\n", "analysis.lambda_samples"),
            # negative decoded megabits in every row of the CSV
            ("[costs]\nuse_reference = false\nbits_per_param = -1\n", "costs.bits_per_param"),
            (
                "[training]\nlr_mode = strongly_convex\nstrong_convexity = -1\nsmoothness = 1\n",
                "training.strong_convexity",
            ),
            (
                "[training]\nlr_mode = strongly_convex\nstrong_convexity = 0\nsmoothness = 0\n",
                "training.strong_convexity",
            ),
            ("[experiment]\nseeds = 4,4\n", "experiment.seeds"),
            # a fading key the selected model does not read
            ("[channel]\nfading = rayleigh\ntwdp_k = -5\n", "channel.twdp_k"),
            ("[channel]\nfading = rayleigh\nrician_nu = 0.3\n", "channel.rician_nu"),
            ("[channel]\nfading = rayleigh\nnormalize_fading = true\n", "channel.normalize_fading"),
            ("[channel]\nrician_sigma = 0.3\n", "channel.rician_sigma"),
            ("[channel]\nfading = twdp\nnormalize_fading = true\n", "channel.normalize_fading"),
            ("[channel]\nfading = twdp\nnormalize_fading = false\n", "channel.normalize_fading"),
            ("[channel]\nfading = twdp\nrician_nu = 0.3\n", "channel.rician_nu"),
            ("[channel]\nfading = rician\ntwdp_delta = 0.3\n", "channel.twdp_delta"),
        ],
    )
    def test_diagnostic_starts_with_key(self, text, key):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value).startswith(f"{key}: ")

    @pytest.mark.parametrize(
        "section, values",
        [
            # each of these once built without error
            ("federation", dict(scheme="bogus")),
            ("federation", dict(n_devices=0)),
            ("training", dict(optimizer="adamw")),
            ("dataset", dict(kind="csv")),
            ("model", dict(hidden=(0,))),
            ("costs", dict(bits_per_param=-1.0)),
            ("analysis", dict(grad_batches=0)),
            ("experiment", dict(rounds=0)),
        ],
    )
    def test_section_built_in_code_checks_itself(self, section, values):
        """A section built in code, not parsed, is refused when it is built,
        its message starting with the field at fault."""
        [field] = values
        with pytest.raises(ValueError, match=rf"^{field}: "):
            _SECTIONS[section](**values)

    @pytest.mark.parametrize(
        "base, replaced, field",
        [
            # each of these once built without error
            (dict(federation=FederationConfig(aggregation_weighting="expected")),
             dict(channel=ChannelConfig(fading=Rician())), "federation.aggregation_weighting"),
            (dict(dataset=DatasetConfig(classes=2, per_class=3),
                  federation=FederationConfig(n_devices=6)),
             dict(federation=FederationConfig(n_devices=10)), "dataset.per_class"),
            ({}, dict(federation=FederationConfig(n_devices=10001)), "federation.n_devices"),
            (dict(channel=ChannelConfig(bandwidth_hz=1e5)),
             dict(federation=FederationConfig(scheme="vanilla-1.5x")), "channel.rate_bps"),
        ],
    )
    def test_config_built_in_code_meets_the_cross_section_checks(self, base, replaced, field):
        """A config built in code, or a section replaced in one, meets the
        checks that span sections, as a parsed config does."""
        with pytest.raises(ValueError, match=rf"^{field}: "):
            ExperimentConfig(**{**base, **replaced})
        with pytest.raises(ValueError, match=rf"^{field}: "):
            dataclasses.replace(ExperimentConfig(**base), **replaced)


# every int and float key, as (section, key)
NUMERIC_KEYS = sorted(
    [key for key, (_, _, codec) in _KEYS.items() if codec in (_CODECS[int], _CODECS[float])]
    + [("channel", key) for key, kind in _CHANNEL_KEYS.items() if kind is float]
)
KNOWN_KEYS = set(_KEYS) | {("channel", key) for key in _CHANNEL_KEYS}


def ini_text(sections: dict[str, dict[str, str]]) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
        for name, items in sections.items()
    )


@st.composite
def ratios_and_weights(draw) -> tuple[str, str]:
    """width_ratios ending at 1.0, and one st_weights entry per ratio, as INI values."""
    ratios = [*sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=3))), 1.0]
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(ratios), max_size=len(ratios)))
    return ",".join(map(repr, ratios)), ",".join(repr(w / sum(raw)) for w in raw)


def ini_ints(lists: st.SearchStrategy) -> st.SearchStrategy[str]:
    return lists.map(lambda values: ",".join(map(str, values)))


class TestConfigProperties:
    @settings(max_examples=300)
    @given(
        key=st.sampled_from(NUMERIC_KEYS),
        value=st.one_of(st.integers().map(str), st.floats().map(repr)),
        fading=st.sampled_from(["rayleigh", "rician", "twdp"]),
    )
    def test_numeric_value_round_trips_or_names_its_key(self, key, value, fading):
        section, name = key
        sections = {"channel": {"fading": fading}}
        sections.setdefault(section, {})[name] = value
        try:
            cfg = parse_config(ini_text(sections))
        except ConfigError as exc:
            # a cross-field check names its own key and mentions the other
            message = str(exc)
            assert message.startswith(f"{section}.") and name in message, message
        else:
            assert parse_config(serialize_config(cfg)) == cfg

    @settings(max_examples=200)
    @given(
        seeds=ini_ints(st.lists(st.integers(-3, 2**40), max_size=4)),
        hidden=ini_ints(st.lists(st.integers(-1, 300), max_size=3)),
        widths=ratios_and_weights(),
        output_dir=st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))),
        scheme=st.sampled_from([*SCHEMES, "vanilla-2x"]),
        fading=st.sampled_from(["rayleigh", "rician", "twdp", "Rician", "nakagami"]),
    )
    def test_multi_key_config_round_trips_or_names_a_key_it_set(
        self, seeds, hidden, widths, output_dir, scheme, fading
    ):
        ratios, weights = widths
        sections = {
            "experiment": {"seeds": seeds, "output_dir": output_dir},
            "model": {"hidden": hidden, "width_ratios": ratios},
            "training": {"st_weights": weights},
            "federation": {"scheme": scheme},
            "channel": {"fading": fading},
        }
        try:
            cfg = parse_config(ini_text(sections))
        except ConfigError as exc:
            keys = [f"{section}.{key}: " for section, items in sections.items() for key in items]
            assert str(exc).startswith(tuple(keys)), str(exc)
        else:
            assert parse_config(serialize_config(cfg)) == cfg

    @given(
        section=st.sampled_from(list(_SECTIONS)),
        key=st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True),
    )
    def test_unknown_key_rejected_by_name(self, section, key):
        assume((section, key) not in KNOWN_KEYS)
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: unknown key"):
            parse_config(ini_text({section: {key: "1"}}))


class TestDeterminism:
    def test_same_seed_gives_byte_identical_csv(self, tmp_path):
        cfg = parse_config(SMALL_RUN.format(out=str(tmp_path)))
        digests = []
        for attempt in ("a", "b"):
            metrics, _ = run_experiment(cfg, 3)
            path = tmp_path / f"m_{attempt}.csv"
            write_metrics_csv(path, metrics)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_parallel_execution_is_schedule_independent(self, tmp_path):
        base = parse_config(SMALL_RUN.format(out=str(tmp_path)))
        par_text = SMALL_RUN.format(out=str(tmp_path)).replace(
            "scheme = slimfl", "scheme = slimfl\nparallel_devices = true"
        )
        par = parse_config(par_text)
        m_seq, _ = run_experiment(base, 3)
        m_par, _ = run_experiment(par, 3)
        assert m_seq == m_par

    def test_changing_fading_stream_only_keeps_partition(self):
        labels = np.repeat(np.arange(4), 30)
        from slimfl.datasets import dirichlet_partition

        a = dirichlet_partition(labels, 3, 0.5, rngmod.stream(5, "partition"))
        _ = rngmod.stream(5, "fading", 0, 0).normal(size=100)  # unrelated draw
        b = dirichlet_partition(labels, 3, 0.5, rngmod.stream(5, "partition"))
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.indices, sb.indices)


class TestCli:
    def test_run_writes_outputs(self, tmp_path, capsys):
        config_path = tmp_path / "exp.ini"
        config_path.write_text(SMALL_RUN.format(out=str(tmp_path / "out")))
        assert main(["run", str(config_path)]) == 0
        assert (tmp_path / "out" / "metrics_seed3.csv").exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["scheme"] == "slimfl"
        assert len(summary["runs"]) == 1

    def test_invalid_config_exits_2_naming_field(self, tmp_path, capsys):
        config_path = tmp_path / "bad.ini"
        config_path.write_text("[dataset]\nkind = idx\n")
        assert main(["run", str(config_path)]) == 2
        assert "dataset.train_images" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["vanilla-0.5x", "vanilla-1.0x", "vanilla-1.5x"])
    def test_expected_weighting_with_baseline_exits_2_naming_field(
        self, tmp_path, capsys, scheme
    ):
        # a baseline has no expected-count rule; the setting must not be ignored
        config_path = tmp_path / "bad.ini"
        config_path.write_text(
            SMALL_RUN.format(out=str(tmp_path / "out")).replace(
                "scheme = slimfl", f"scheme = {scheme}\naggregation_weighting = expected"
            )
        )
        assert main(["run", str(config_path)]) == 2
        assert "federation.aggregation_weighting" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line",
        ["total_power_dbm = 5000", "noise_psd_db_hz = 5000", "rate_sinr_threshold = -2"],
    )
    def test_out_of_range_shorthand_exits_2_naming_key(self, tmp_path, capsys, line):
        config_path = tmp_path / "bad.ini"
        config_path.write_text(
            SMALL_RUN.format(out=str(tmp_path / "out")) + f"\n[channel]\n{line}\n"
        )
        assert main(["analyze", str(config_path)]) == 2
        key = line.split(" = ")[0]
        assert f"channel.{key}" in capsys.readouterr().err

    # the rate's SINR threshold 2^(rate/bandwidth) - 1 overflows a float:
    # for every scheme at 1 mHz, and at 100 kHz only for the full-width
    # baseline, which sends at twice the rate
    @pytest.mark.parametrize(
        "command, scheme, bandwidth",
        [("run", "slimfl", "1e-3"), ("analyze", "slimfl", "1e-3"), ("run", "vanilla-1.0x", "1e5")],
    )
    def test_overflowing_rate_exits_2_naming_key(
        self, tmp_path, capsys, command, scheme, bandwidth
    ):
        config_path = tmp_path / "bad.ini"
        config_path.write_text(
            SMALL_RUN.format(out=str(tmp_path / "out")).replace("= slimfl", f"= {scheme}")
            + f"\n[channel]\nbandwidth_hz = {bandwidth}\n"
        )
        assert main([command, str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "channel.rate_bps: " in err and "bandwidth_hz" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "optimizer, lr, error",
        [
            (
                "adam", "1e308",
                r"error: round 1: \d+ coordinates of the global model's half-width segment are "
                r"not finite; the finite values of device\(s\) \d+(, \d+)* overflowed their "
                r"average\n",
            ),
            (
                "sgd", "1e306",
                r"error: round 3: the local loss of device\(s\) 1, 2, 3, 4, 5, 6, 7, 8 is not "
                r"finite\n",
            ),
        ],
    )
    def test_diverging_run_exits_1_naming_round_width_and_devices(
        self, optimizer, lr, error, tmp_path, capsys
    ):
        text = (Path(__file__).resolve().parents[1] / "configs" / "reference.ini").read_text()
        for key, value in (
            ("seeds", "1"), ("rounds", "5"), ("optimizer", optimizer), ("lr", lr),
            ("output_dir", tmp_path / "out"),
        ):
            text, n = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
            assert n == 1
        config_path = tmp_path / "diverging.ini"
        config_path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(config_path)]) == 1
        assert [str(w.message) for w in caught] == []  # the error alone says what went wrong
        assert re.fullmatch(error, capsys.readouterr().err)
        assert not (tmp_path / "out" / "metrics_seed1.csv").exists()

    @pytest.mark.parametrize(
        "plan", [contextlib.nullcontext, sampled_rounds, split_stacks],
        ids=["inline", "sampled", "split"],
    )
    def test_failed_draw_exits_1_on_every_engine(self, plan, tmp_path, capsys, monkeypatch):
        # inline and in the split head the draw's error itself; in the
        # loop's spare-CPU helper the helper's, naming the round and process
        def no_gain(model, rng):
            raise ValueError("no fading gain")

        monkeypatch.setattr(federation, "sample_fading", no_gain)
        config_path = tmp_path / "exp.ini"
        # 4 devices: two parts on the split engine
        text = SMALL_RUN.format(out=str(tmp_path / "out")).replace("devices = 3", "devices = 4")
        config_path.write_text(text)
        with plan():
            assert main(["run", str(config_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out" / "metrics_seed3.csv").exists()
        assert_no_child_process()

    @pytest.mark.parametrize(
        "command", [["run"], ["analyze"], ["sweep", "--param", "training.lr", "--values", "0.1"]],
        ids=["run", "analyze", "sweep"],
    )
    def test_missing_file_exits_2(self, command, capsys):
        assert main([command[0], "/nonexistent/exp.ini", *command[1:]]) == 2
        assert "config error: config file: /nonexistent/exp.ini does not exist" in (
            capsys.readouterr().err
        )

    def missing_idx(self, tmp_path):
        """A config whose IDX files do not exist, writing under ``out``."""
        paths = {key: tmp_path / "missing" / key for key in ("ti", "tl", "si", "sl")}
        text = SMALL_RUN.format(out=str(tmp_path / "out")).replace(
            "kind = synth",
            "kind = idx\ntrain_images = {ti}\ntrain_labels = {tl}\n"
            "test_images = {si}\ntest_labels = {sl}".format(**paths),
        )
        config_path = tmp_path / "exp.ini"
        config_path.write_text(text)
        return config_path

    def test_run_that_fails_at_set_up_leaves_no_output_directory(self, tmp_path, capsys):
        assert main(["run", str(self.missing_idx(tmp_path))]) == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_sweep_analyze_leaves_no_directory(self, tmp_path, capsys):
        args = ["sweep", str(self.missing_idx(tmp_path)), "--param", "federation.devices"]
        assert main([*args, "--values", "2", "--mode", "analyze"]) == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_analyze_writes_into_a_new_directory(self, tmp_path, capsys):
        config_path = tmp_path / "exp.ini"
        config_path.write_text(SMALL_RUN.format(out=str(tmp_path / "out")))
        out_path = tmp_path / "nodir" / "a.json"
        assert main(["analyze", str(config_path), "--output", str(out_path)]) == 0
        assert main(["analyze", str(config_path)]) == 0
        assert capsys.readouterr().out == f"analysis {out_path}\n{out_path.read_text()}"
        assert os.listdir(out_path.parent) == ["a.json"]

    def test_analyze_emits_json(self, tmp_path, capsys):
        config_path = tmp_path / "exp.ini"
        config_path.write_text(SMALL_RUN.format(out=str(tmp_path / "out")))
        out_path = tmp_path / "analysis.json"
        assert main(["analyze", str(config_path), "--output", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert abs(report["power_split"]["numeric"] - 0.662) < 0.005
        assert report["power_split"]["alt_exceeds_one"] is True
        assert report["decode_probs"][0] >= report["decode_probs"][1]
        assert report["grad_variance_mean"] >= 0
        assert report["gap_bound_curve"][0][0] == 1

    @pytest.mark.parametrize("line", ["rate_sinr_threshold = 0", "rate_bps = 0"])
    def test_analyze_on_a_zero_rate_channel(self, tmp_path, capsys, line):
        # ``run`` accepts a zero rate, so ``analyze`` reports on it too: the
        # alternate closed form takes its limit at u = 0
        config_path = tmp_path / "exp.ini"
        config_path.write_text(
            SMALL_RUN.format(out=str(tmp_path / "out")) + f"\n[channel]\n{line}\n"
        )
        out_path = tmp_path / "analysis.json"
        assert main(["analyze", str(config_path), "--output", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["power_split"]["closed_form_alt"] == 1.5
        assert report["decode_probs"] == [1.0, 1.0]

    def test_sweep_analyze_over_power_split(self, tmp_path):
        config_path = tmp_path / "exp.ini"
        config_path.write_text(SMALL_RUN.format(out=str(tmp_path / "out")))
        code = main(
            [
                "sweep", str(config_path),
                "--param", "channel.power_split",
                "--values", "0.6,0.662,0.8",
                "--mode", "analyze",
            ]
        )
        assert code == 0
        sweep_dir = tmp_path / "out" / "sweep_channel_power_split"
        reports = {
            v: json.loads((sweep_dir / v / "analysis.json").read_text())
            for v in ("0.6", "0.662", "0.8")
        }
        # the exact decode objective is best near the published optimum
        d = {v: dict(r["objective_samples"]) for v, r in reports.items()}
        obj_at = {
            v: min(val for val in d[v].values()) for v in d
        }
        assert obj_at["0.662"] <= obj_at["0.6"] + 1e-9
        assert obj_at["0.662"] <= obj_at["0.8"] + 1e-9

    # a shorthand and its field set one value, so setting either drops the
    # other; a poor channel or a powerless second message writes null bounds
    @pytest.mark.parametrize(
        "param, values",
        [
            ("channel.total_power_dbm", ("20", "23")),
            ("channel.noise_psd_db_hz", ("-172", "-169")),
            ("channel.rate_sinr_threshold", ("0.5", "0.667")),
            ("channel.rate_bps", ("3e7", "5e7")),
            ("channel.power_split", ("0.662", "1.0")),
            ("channel.noise_psd_db_hz", ("-169", "-140")),
        ],
    )
    def test_sweep_analyze_over_channel_rate_and_shorthands(self, tmp_path, param, values):
        config_path = tmp_path / "exp.ini"
        config_path.write_text(SMALL_RUN.format(out=str(tmp_path / "out")))
        args = ["sweep", str(config_path), "--param", param, f"--values={','.join(values)}"]
        assert main([*args, "--mode", "analyze"]) == 0
        sweep_dir = tmp_path / "out" / f"sweep_{param.replace('.', '_')}"
        reports = [strict_json((sweep_dir / v / "analysis.json").read_text()) for v in values]
        assert reports[0] != reports[1]

    # a poor channel, whose objective overflows at splits near 1, and a
    # second message with no power, which never decodes: infinite bounds
    @pytest.mark.parametrize("channel", ["noise_psd_db_hz = -140", "power_split = 1.0"])
    def test_analyze_writes_strict_json_on_every_channel(self, channel, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text(SMALL_RUN.format(out=str(tmp_path / "out")) + f"[channel]\n{channel}\n")
        assert main(["analyze", str(config)]) == 0
        printed = capsys.readouterr().out
        assert main(["analyze", str(config), "--output", str(tmp_path / "report.json")]) == 0
        assert (tmp_path / "report.json").read_text() == printed
        report = strict_json(printed)
        if channel.startswith("power_split"):
            assert report["gradient_noise_bound"] is None
            assert [bound for _, bound in report["gap_bound_curve"]] == [None] * 10
        else:
            assert None in [objective for _, objective in report["objective_samples"]]

    def sweep_and_analyze(self, tmp_path, channel, param, values):
        """The analysis.json of each swept value, and ``slimfl analyze`` of
        the base config, which holds ``channel`` as its [channel] section."""
        text = SMALL_RUN.format(out=str(tmp_path / "out")) + f"\n[channel]\n{channel}"
        (tmp_path / "exp.ini").write_text(text)
        args = ["sweep", str(tmp_path / "exp.ini"), "--param", param, "--values", values]
        assert main([*args, "--mode", "analyze"]) == 0
        assert main(["analyze", str(tmp_path / "exp.ini"), "--output", str(tmp_path / "base")]) == 0
        sweep_dir = tmp_path / "out" / f"sweep_{param.replace('.', '_')}"
        swept = {v: (sweep_dir / v / "analysis.json").read_bytes() for v in values.split(",")}
        return swept, (tmp_path / "base").read_bytes()

    def test_sweep_over_bandwidth_matches_the_edited_file(self, tmp_path):
        # the noise power and the rate are set through shorthands that read the
        # bandwidth, so they follow it as they do when the file is edited
        channel = "bandwidth_hz = 75e6\nnoise_psd_db_hz = -169\nrate_sinr_threshold = 0.667\n"
        swept, _ = self.sweep_and_analyze(tmp_path, channel, "channel.bandwidth_hz", "150e6")
        edited = tmp_path / "edited.ini"
        edited.write_text((tmp_path / "exp.ini").read_text().replace("75e6", "150e6"))
        assert main(["analyze", str(edited), "--output", str(tmp_path / "edited")]) == 0
        assert swept["150e6"] == (tmp_path / "edited").read_bytes()

    def test_sweep_over_fading_drops_the_keys_a_model_does_not_read(self, tmp_path):
        channel = "fading = rician\nrician_nu = 1.0\nrician_sigma = 0.7\nnormalize_fading = true\n"
        swept, base = self.sweep_and_analyze(
            tmp_path, channel, "channel.fading", "rayleigh,rician,twdp"
        )
        assert swept["rician"] == base
        # closed-form decode probabilities exist for Rayleigh fading only
        probs = {v: json.loads(report)["decode_probs"] for v, report in swept.items()}
        assert probs["rician"] is probs["twdp"] is None and len(probs["rayleigh"]) == 2

    def test_widths_table(self, capsys):
        assert main(["widths", "--peaks", "23,382,5", "--target", "100"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "r_peak_mflops,chosen_width,ips"
        assert out[1].startswith("23,1/6x")
        assert out[2].startswith("382,6/6x")
        assert out[3] == "5,none,"

    def test_run_determinism_via_summary_hash(self, tmp_path):
        config_path = tmp_path / "exp.ini"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        digests = []
        for out in (out_a, out_b):
            config_path.write_text(SMALL_RUN.format(out=str(out)))
            assert main(["run", str(config_path)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            digests.append(summary["runs"][0]["metrics_sha256"])
        assert digests[0] == digests[1]
