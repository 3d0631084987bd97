"""End-to-end experiment plumbing: task building, scheme dispatch, summaries."""

import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest
from conftest import assert_no_child_process, sampled_rounds

from slimfl.channel import ChannelConfig
from slimfl.cli import main
from slimfl import experiment
from slimfl.config import parse_config, serialize_config
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
        m = fed.run_round()
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
        m = run.run_round()
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
