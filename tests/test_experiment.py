"""End-to-end experiment plumbing: task building, scheme dispatch, summaries."""

import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_no_child_process, sampled_rounds

from slimfl.channel import ChannelConfig
from slimfl.cli import main
from slimfl import experiment
from slimfl.config import _CHANNEL_KEYS, _KEYS, parse_config, serialize_config
from slimfl.datasets import write_idx
from slimfl.experiment import build_task, make_run, run_all, run_experiment, summarize
from slimfl.metrics import CostModel
from slimfl.slimnet import build_mask

IDX_RUN = """
[experiment]
seeds = 1
rounds = 2
output_dir = {out}

[dataset]
kind = idx
train_images = {ti}
train_labels = {tl}
test_images = {si}
test_labels = {sl}
limit = 80
alpha = 1.0

[model]
hidden = 6

[training]
lr = 0.01
batch_size = 8

[federation]
devices = 3
scheme = slimfl
"""


def write_fixture(tmp_path, n_train=120, n_test=40, side=4, classes=3):
    rng = np.random.default_rng(0)

    def emit(n, img_path, lab_path):
        labels = rng.integers(0, classes, size=n, dtype=np.uint8)
        images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
        # stamp a label-dependent corner so the task is learnable
        images[np.arange(n), 0, 0] = labels * 80
        write_idx(images, labels, img_path, lab_path)

    paths = {
        "ti": tmp_path / "train-img",
        "tl": tmp_path / "train-lab",
        "si": tmp_path / "test-img",
        "sl": tmp_path / "test-lab",
    }
    emit(n_train, paths["ti"], paths["tl"])
    emit(n_test, paths["si"], paths["sl"])
    return paths


class TestIdxExperiment:
    def test_runs_end_to_end_with_limit(self, tmp_path):
        paths = write_fixture(tmp_path)
        cfg = parse_config(
            IDX_RUN.format(out=str(tmp_path / "out"), **{k: str(v) for k, v in paths.items()})
        )
        task = build_task(cfg, seed=1)
        assert len(task.train) == 80  # limit applied
        assert task.layout.layers[0].in_dim == 16
        metrics, summary = run_experiment(cfg, 1)
        assert len(metrics) == 2
        assert summary["rounds"] == 2
        assert summary["convergence_round"] is None
        assert all(0.0 <= m.acc_full <= 1.0 for m in metrics)

    @pytest.mark.parametrize("sampled", [False, True], ids=["inline", "sampled"])
    def test_empty_test_set_rejected_before_any_round(self, tmp_path, capsys, sampled):
        paths = write_fixture(tmp_path, n_test=0)
        text = IDX_RUN.format(out=str(tmp_path / "out"), **{k: str(v) for k, v in paths.items()})
        config_path = tmp_path / "exp.ini"
        config_path.write_text(text)
        with sampled_rounds(sampled):
            with pytest.raises(ValueError, match="^test set must be nonempty$"):
                make_run(parse_config(text), 1)
            assert_no_child_process()
            assert main(["run", str(config_path)]) == 1
        assert capsys.readouterr().err == "error: test set must be nonempty\n"
        assert not (tmp_path / "out" / "metrics_seed1.csv").exists()
        # a run that evaluates no round needs no test set
        unevaluated = parse_config(text.replace("rounds = 2", "rounds = 2\neval_every = 3"))
        metrics, _ = run_experiment(unevaluated, 1)
        assert len(metrics) == 2 and all(math.isnan(m.acc_full) for m in metrics)


class TestSchemeDispatch:
    def small_cfg(self, scheme):
        text = f"""
[experiment]
seeds = 1
rounds = 2
output_dir = /tmp/unused

[dataset]
kind = synth
classes = 4
per_class = 40
test_per_class = 10
dim = 10
spread = 0.4
alpha = 1.0

[model]
hidden = 8

[training]
batch_size = 8

[federation]
devices = 3
scheme = {scheme}
"""
        cfg = parse_config(text)
        return dataclasses.replace(cfg, channel=ChannelConfig(rate_bps=0.0))

    def test_vanilla_half_uses_narrow_layout_and_half_payload(self):
        cfg = self.small_cfg("vanilla-0.5x")
        fed = make_run(cfg, seed=2)
        [run] = fed.runs
        assert run.layout.layers[0].out_dim == 4  # ceil(8 * 0.5)
        m = fed.run()[0]
        assert math.isnan(m.acc_full) and not math.isnan(m.acc_half)
        assert m.decoded_megabits == 3 * 86_344 / 1e6

    def test_vanilla_full_uses_full_layout(self):
        cfg = self.small_cfg("vanilla-1.0x")
        fed = make_run(cfg, seed=3)
        [run] = fed.runs
        assert run.layout.layers[0].out_dim == 8
        m = fed.run_round()
        assert m.decoded_megabits == 3 * 172_688 / 1e6

    def test_combined_scheme_reports_both_columns(self):
        cfg = self.small_cfg("vanilla-1.5x")
        run = make_run(cfg, seed=4)
        m = run.run()[0]
        assert not math.isnan(m.acc_half) and not math.isnan(m.acc_full)

    @pytest.mark.parametrize("scheme", ["slimfl", "vanilla-1.5x"])
    def test_replaced_round_count_sets_run_length(self, scheme):
        # the run length has one source: a config edited in code runs as
        # its serialize -> parse round trip does
        cfg = dataclasses.replace(self.small_cfg(scheme), rounds=3)
        metrics, summary = run_experiment(cfg, 9)
        assert len(metrics) == summary["rounds"] == 3

    def test_replaced_width_ratios_reach_every_consumer(self):
        # the width ratios have one source: a config edited in code builds
        # the runs its serialize -> parse round trip builds
        base = self.small_cfg("slimfl")
        cfg = dataclasses.replace(
            base,
            training=dataclasses.replace(base.training, width_ratios=(0.25, 1.0)),
            costs=dataclasses.replace(base.costs, use_reference=False),
        )
        assert parse_config(serialize_config(cfg)) == cfg
        [run] = make_run(cfg, seed=2).runs
        np.testing.assert_array_equal(run.widths[0].mask.bits, build_mask(run.layout, 0.25).bits)
        assert run.widths[0].bits == CostModel.from_layout(run.layout, 0.25).half_bits
        [half] = make_run(
            dataclasses.replace(
                cfg, federation=dataclasses.replace(cfg.federation, scheme="vanilla-0.5x")
            ),
            seed=2,
        ).runs
        assert half.layout.layers[0].out_dim == 2  # ceil(8 * 0.25)

    def test_summary_totals_accumulate(self):
        cfg = self.small_cfg("slimfl")
        metrics, summary = run_experiment(cfg, 5)
        assert summary["decoded_megabits_total"] == sum(m.decoded_megabits for m in metrics)
        assert summary["final_acc_1.0x"] == metrics[-1].acc_full

    def test_computed_cost_model_option(self):
        cfg = self.small_cfg("slimfl")
        cfg = dataclasses.replace(
            cfg, costs=dataclasses.replace(cfg.costs, use_reference=False, bits_per_param=32.0)
        )
        fed = make_run(cfg, seed=6)
        m = fed.run_round()
        full_params = fed.runs[0].layout.size
        assert m.decoded_megabits == 3 * full_params * 32 / 1e6

    def test_eval_every_skips_between_evaluations(self):
        cfg = dataclasses.replace(self.small_cfg("slimfl"), rounds=4, eval_every=2)
        metrics, summary = run_experiment(cfg, 7)
        assert [math.isnan(m.acc_full) for m in metrics] == [True, False, True, False]
        assert summary["convergence_round"] is None  # sparse traces skip detection

    def test_desk_scale_run_completes_quickly(self):
        # 200 rounds, 10 devices, synthetic data: must stay far inside the
        # five-minute desk-scale budget
        import time

        text = """
[experiment]
seeds = 1
rounds = 200
output_dir = /tmp/unused

[dataset]
kind = synth
classes = 10
per_class = 1000
test_per_class = 100
dim = 64
spread = 0.3
alpha = 1.0

[model]
hidden = 32

[training]
lr = 0.01

[federation]
devices = 10
scheme = slimfl
"""
        start = time.time()
        metrics, _ = run_experiment(parse_config(text), 1)
        elapsed = time.time() - start
        assert len(metrics) == 200
        assert elapsed < 300

    def test_same_rate_mode_ignores_payload_scaling(self):
        from slimfl.channel import config_for_decode_probs
        from slimfl.federation import vanilla_threshold

        chan = config_for_decode_probs(0.7, 0.5)
        cfg = self.small_cfg("vanilla-1.0x")
        cfg = dataclasses.replace(
            cfg,
            channel=chan,
            federation=dataclasses.replace(cfg.federation, vanilla_rate_mode="same_rate"),
        )
        [run] = make_run(cfg, seed=8).runs
        assert run.thresholds.tolist() == [vanilla_threshold(chan, 1.0)]


class TestRunAll:
    def test_crash_keeps_finished_seeds(self, tmp_path, monkeypatch):
        cfg = parse_config(
            f"[experiment]\nseeds = 4,2\nrounds = 2\noutput_dir = {tmp_path}\n"
            "[dataset]\nclasses = 3\nper_class = 20\ntest_per_class = 5\ndim = 6\n"
            "[model]\nhidden = 4\n[federation]\ndevices = 2\n"
        )

        def crash_on_second_seed(cfg, seed):
            if seed == 2:
                raise RuntimeError("killed")
            return run_experiment(cfg, seed)

        monkeypatch.setattr(experiment, "run_experiment", crash_on_second_seed)
        with pytest.raises(RuntimeError, match="killed"):
            run_all(cfg)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["seeds"] == [4]
        assert [run["seed"] for run in summary["runs"]] == [4]
        csv = (tmp_path / "metrics_seed4.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == summary["runs"][0]["metrics_sha256"]
        assert sorted(os.listdir(tmp_path)) == ["metrics_seed4.csv", "summary.json"]


# a small synthetic task on the default Rayleigh channel, where every part
# of the analysis report is computed
ANALYZE_RUN = """
[experiment]
seeds = 3

[dataset]
per_class = 20
test_per_class = 5
dim = 8

[model]
hidden = 6

[federation]
devices = 3
"""


# each [analysis] key, a value away from its default, and the report field it feeds
ANALYSIS_REACH = [
    ("grad_batches", 3, "grad_variance_mean"),
    ("lambda_samples", 5, "objective_samples"),
    ("init_distance_sq", 4.0, "gap_bound_curve"),
    ("strong_convexity", 0.5, "gap_bound_curve"),
    ("smoothness", 20.0, "gap_bound_curve"),
]


@pytest.mark.parametrize("key, value, field", ANALYSIS_REACH)
def test_each_analysis_key_changes_the_report_field_it_feeds(key, value, field):
    """Each ``[analysis]`` key, set away from its default, changes the
    report field it feeds (for ``lambda_samples``, the sample count)."""
    changed = ANALYZE_RUN + f"\n[analysis]\n{key} = {value}\n"
    assert getattr(parse_config(ANALYZE_RUN).analysis, key) != value  # away from its default

    def fed(text):
        report = experiment.analyze_experiment(parse_config(text))
        assert report[field] is not None
        return len(report[field]) if key == "lambda_samples" else report[field]

    assert fed(changed) != fed(ANALYZE_RUN)


# the key-reach table's run: 4 devices for 6 rounds, each round evaluated
REACH_RUN = {
    "experiment": {"seeds": "1", "rounds": "6", "output_dir": "out"},
    "dataset": {"classes": "3", "per_class": "20", "test_per_class": "10", "dim": "6"},
    "model": {"hidden": "6"},
    "training": {"lr": "0.05", "batch_size": "8"},
    "federation": {"devices": "4"},
}
# contexts where a key acts: at the default -169 dB/Hz every device decodes
# both messages every round, so the fading model, the weighting and the
# rate mode change nothing; the curvature keys act only with their step
# rule, bits_per_param only off the reference costs, and the IDX keys only
# on IDX data
POOR = {"channel.noise_psd_db_hz": "-140"}
RICIAN = {**POOR, "channel.fading": "rician"}
TWDP = {**POOR, "channel.fading": "twdp"}
IDX = {
    "dataset.kind": "idx", "dataset.train_images": "{train_images}",
    "dataset.train_labels": "{train_labels}", "dataset.test_images": "{test_images}",
    "dataset.test_labels": "{test_labels}",
}
# every settable key but the [analysis] keys, which ANALYSIS_REACH holds
# field by field: (key, a value away from its default, the context where it acts)
KEY_REACH = [
    ("experiment.seeds", "2", {}),
    ("experiment.rounds", "5", {}),
    ("experiment.eval_every", "2", {}),
    ("dataset.kind", "idx", {k: v for k, v in IDX.items() if k != "dataset.kind"}),
    ("dataset.alpha", "0.3", {}),
    ("dataset.classes", "4", {}),
    ("dataset.per_class", "15", {}),
    ("dataset.test_per_class", "7", {}),
    ("dataset.dim", "5", {}),
    ("dataset.spread", "0.5", {}),
    ("dataset.train_images", "{other_images}", IDX),
    ("dataset.train_labels", "{other_labels}", IDX),
    ("dataset.test_images", "{other_images}", IDX),
    ("dataset.test_labels", "{other_labels}", IDX),
    ("dataset.limit", "50", IDX),
    ("model.hidden", "5", {}),
    ("model.width_ratios", "0.25,1.0", {}),
    ("channel.distance_m", "150", {}),
    ("channel.pathloss_exp", "2.6", {}),
    ("channel.bandwidth_hz", "5e7", {}),
    ("channel.total_power_w", "0.1", {}),
    ("channel.noise_power_w", "1e-8", {}),
    ("channel.rate_bps", "5e7", {}),
    ("channel.power_split", "0.7", {}),
    ("channel.total_power_dbm", "25", {}),
    ("channel.noise_psd_db_hz", "-140", {}),
    ("channel.rate_sinr_threshold", "1.0", {}),
    ("channel.fading", "rician", POOR),
    ("channel.normalize_fading", "true", RICIAN),
    ("channel.rician_nu", "0.8", RICIAN),
    ("channel.rician_sigma", "0.4", RICIAN),
    ("channel.twdp_k", "10", TWDP),
    ("channel.twdp_delta", "0.5", TWDP),
    ("training.st_weights", "0.3,0.7", {}),
    ("training.lr", "0.1", {}),
    ("training.lr_mode", "strongly_convex", {}),
    ("training.strong_convexity", "0.5", {"training.lr_mode": "strongly_convex"}),
    ("training.smoothness", "2.0", {"training.lr_mode": "strongly_convex"}),
    ("training.optimizer", "sgd", {}),
    ("training.batch_size", "4", {}),
    ("training.algorithm", "sandwich", {}),
    ("federation.devices", "3", {}),
    ("federation.local_iters", "2", {}),
    ("federation.scheme", "vanilla-1.0x", {}),
    ("federation.aggregation_weighting", "expected", POOR),
    ("federation.vanilla_rate_mode", "same_rate", {**POOR, "federation.scheme": "vanilla-1.0x"}),
    ("costs.use_reference", "false", {}),
    ("costs.bits_per_param", "16", {"costs.use_reference": "false"}),
]
# the settable keys that no output's bytes read, and why
UNREACHED = {
    "experiment.output_dir": "it changes only where the outputs go",
    "federation.parallel_devices": "accepted and inert",
}


@pytest.fixture(scope="module")
def reach_idx(tmp_path_factory):
    """Two IDX image and label files of 120 samples each, named as the
    key-reach table's placeholders name them."""
    root = tmp_path_factory.mktemp("reach-idx")
    names = {}
    for seed, (images, labels) in enumerate([("train_images", "train_labels"),
                                             ("other_images", "other_labels")]):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, size=120, dtype=np.uint8)
        x = rng.integers(0, 256, size=(120, 3, 3), dtype=np.uint8)
        x[:, 0, 0] = y * 80  # a learnable corner
        names[images], names[labels] = root / images, root / labels
        write_idx(x, y, names[images], names[labels])
    names["test_images"], names["test_labels"] = names["train_images"], names["train_labels"]
    return {name: str(path) for name, path in names.items()}


def reach_outputs(settings: dict, paths: dict) -> tuple:
    """The config of ``REACH_RUN`` with ``settings`` (``section.key`` ->
    value) over it, and the bytes of its metrics CSVs, ``summary.json`` and
    ``analyze`` JSON, run in the current directory."""
    sections = {section: dict(keys) for section, keys in REACH_RUN.items()}
    for dotted, value in settings.items():
        section, key = dotted.split(".")
        sections.setdefault(section, {})[key] = value.format(**paths)
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )
    cfg = parse_config(text)
    run_all(cfg)
    names = [f"metrics_seed{seed}.csv" for seed in cfg.seeds] + ["summary.json"]
    out = [Path(cfg.output_dir, name).read_bytes() for name in names]
    analysis = json.dumps(experiment.analyze_experiment(cfg), sort_keys=True).encode()
    return cfg, (*out, analysis)


def test_key_reach_tables_hold_every_settable_key():
    settable = {".".join(key) for key in _KEYS} | {f"channel.{key}" for key in _CHANNEL_KEYS}
    keys = [key for key, _, _ in KEY_REACH] + [f"analysis.{key}" for key, _, _ in ANALYSIS_REACH]
    assert len(set(keys)) == len(keys) and set(keys) | set(UNREACHED) == settable


@pytest.mark.parametrize("key, value, context", KEY_REACH, ids=[key for key, _, _ in KEY_REACH])
def test_each_settable_key_changes_an_output(key, value, context, reach_idx, tmp_path,
                                             monkeypatch):
    """Each settable key outside ``[analysis]``, set away from its default
    in a context where it acts, changes the bytes of a metrics CSV,
    ``summary.json`` or the ``analyze`` JSON: no key is read as a hard-coded
    default."""
    monkeypatch.chdir(tmp_path)  # where the relative output_dir goes
    base_cfg, base = reach_outputs(context, reach_idx)
    cfg, changed = reach_outputs({**context, key: value}, reach_idx)
    assert cfg != base_cfg  # the value is away from the context's default
    assert changed != base
