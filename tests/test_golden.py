"""Golden bytes: short runs of every scheme and step rule reproduce pinned outputs.

Each case runs a tiny synthetic federation for a few rounds on a poor
channel (every aggregation case occurs) and pins two SHA-256 digests: the
metrics CSV, and the raw bytes of every final global parameter vector.
The CSV rounds to six decimals; the parameter bytes catch a change in the
last bit of any local step.  A change to the arithmetic of training,
aggregation or evaluation shows here as a digest mismatch; re-pin only for
a deliberate, documented output change.  Every case runs again on each
other engine, to the same pins: with its batches and fading gains drawn
ahead in a sampler process and its global model evaluated one round behind
in an evaluator process, and with its device stack split over two
processes.
"""

import dataclasses
import hashlib

import pytest
from conftest import sampled_rounds, split_stacks

from slimfl.channel import config_for_decode_probs
from slimfl.config import parse_config
from slimfl.experiment import build_task, make_run
from slimfl.metrics import write_metrics_csv

SEED = 5

BASE = """
[experiment]
rounds = 4
eval_every = {eval_every}

[dataset]
kind = synth
classes = 4
per_class = {per_class}
test_per_class = 10
dim = 8
spread = 0.5
alpha = {alpha}

[model]
hidden = 8
width_ratios = {ratios}

[training]
st_weights = {weights}
lr = 0.05
lr_mode = {lr_mode}
smoothness = 10.0
optimizer = {optimizer}
batch_size = 16
algorithm = {algorithm}

[federation]
devices = {devices}
local_iters = {iters}
scheme = {scheme}
aggregation_weighting = {weighting}
vanilla_rate_mode = {rate_mode}
"""

DEFAULTS = dict(
    eval_every=1, per_class=40, alpha=1.0, ratios="0.25,0.5,1.0", weights="0.2,0.3,0.5",
    lr_mode="constant", optimizer="adam", algorithm="superposed", devices=4, iters=1,
    scheme="slimfl", weighting="empirical", rate_mode="payload_scaled",
)

CASES = {
    "slimfl-superposed": {},
    "slimfl-widthwise": dict(algorithm="widthwise"),
    "slimfl-sandwich": dict(algorithm="sandwich"),
    # segment sums divided by the expected decode counts K * exp(-tau)
    "slimfl-expected": dict(weighting="expected"),
    "vanilla-0.5x": dict(scheme="vanilla-0.5x", ratios="0.5,1.0", weights="0.5,0.5"),
    "vanilla-1.0x": dict(scheme="vanilla-1.0x", ratios="0.5,1.0", weights="0.5,0.5"),
    "vanilla-1.5x": dict(scheme="vanilla-1.5x", ratios="0.5,1.0", weights="0.5,0.5"),
    "vanilla-same-rate": dict(
        scheme="vanilla-1.0x", ratios="0.5,1.0", weights="0.5,0.5", rate_mode="same_rate"
    ),
    # skewed shards, several smaller than the batch: devices train on
    # different batch sizes; also two local steps, SGD and the decayed rate
    "small-shards-sgd": dict(
        per_class=10, alpha=0.1, devices=6, iters=2, optimizer="sgd",
        lr_mode="strongly_convex", eval_every=2,
    ),
}

# (metrics CSV sha256, final global parameter bytes sha256)
GOLDEN = {
    "slimfl-expected": (
        "29614d2eb57ddff56b66583d1dc763a6aaba7ed2114641ebe991ac779655b9d2",
        "08539ccab062dce29ee5e33c7db052d85dede900029985ff1cb0471e514ccaa4",
    ),
    "slimfl-sandwich": (
        "70926f2f9fb7ccc65a75b9d7ad03bc93d226a5377d3c3cb9d5ef9bf00b3d0142",
        "1e0a984b86993a32e0a2863f1cd4f3effdf3016dd79ee7ff2c7b32a89af1f6a7",
    ),
    "slimfl-superposed": (
        "b3dcbaae33eb43af52d9231288738abc158496c33a687f6ca451decaed002c3c",
        "7646ebe0103b02cfc521829ccd88ab3785a45c3ab951102dc3d1b7a28b93e20b",
    ),
    "slimfl-widthwise": (
        "3e1ba2d90e280c3666361af3aea092a3ecaf2b3c01538671ed10d375f113be16",
        "1d79de75c90444220cb2a00b4b8c6e100ab3f8812e04a1c0a4a2e2ffdce2b61f",
    ),
    "small-shards-sgd": (
        "4815dd3ff51083a14b3af2c65215d0c7606f7459a1f4cb2dc51fae7170dbf426",
        "7e87c77b34a13c6ef5d7407852eaeaa0e6959d17cc2d6b8c82ff3fb76e1f55b6",
    ),
    "vanilla-0.5x": (
        "10f98396597ba63e25762c7f7330ed3d0ae1d736b91b964e7fde9785e6d38306",
        "ad745bb1ef8754f958eef60fd739305bce45667a4f5d25c602bffea192e8d18e",
    ),
    "vanilla-1.0x": (
        "7969bafbe91b2c9c8ba739dfe0e95f6096c7ac3b0550282f5eb8d2e8d19cd9e1",
        "e7e2ef96eb802b42b757b53030d2a6abfa6c8ff49f70184872c1b57d37f1637d",
    ),
    "vanilla-1.5x": (
        "8ea6cc245d54d7bab3ac354b9dd6ac699406f8b66c4b3a5720f488a2109d9c4a",
        "c41e15c6054b69a21288cf079fd28b65c91d0e35a9b2a494aea521af19da9ea7",
    ),
    "vanilla-same-rate": (
        "c0045e77a8812d6b0777caa011bc861f47d6c27d56a4e9103160ec9ec9f15e20",
        "a27685c70f03b9a9218de721bfaa09c7407e6deb5eb888df742b9e21cc3c4e09",
    ),
}


def case_config(name):
    text = BASE.format(**{**DEFAULTS, **CASES[name]})
    return dataclasses.replace(parse_config(text), channel=config_for_decode_probs(0.7, 0.5))


def digests(name, tmp_path, built=None):
    """The case's two digests; its round loop is appended to ``built``, if
    given."""
    fed = make_run(case_config(name), SEED)
    if built is not None:
        built.append(fed)
    path = tmp_path / f"{name}.csv"
    write_metrics_csv(path, fed.run())
    params = hashlib.sha256()
    for run in fed.runs:
        params.update(run.global_values.tobytes())
    return hashlib.sha256(path.read_bytes()).hexdigest(), params.hexdigest()


def test_small_shards_case_mixes_batch_sizes():
    cfg = case_config("small-shards-sgd")
    sizes = {min(cfg.training.batch_size, len(s)) for s in build_task(cfg, SEED).shards}
    assert len(sizes) > 1 and min(sizes) < cfg.training.batch_size


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_pins(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN[name]


def evaluated_off_path(fed):
    """Whether every round that the round loop ``fed`` evaluated was
    evaluated in its evaluator process, every run's global model in it."""
    evaluated = range(fed.eval_every, fed.rounds + 1, fed.eval_every)
    widths = sum(len(run.widths) for run in fed.runs)
    return (
        fed.evaluator is not None and list(fed.evaluated) == list(evaluated)
        and all(len(accuracies) == widths for accuracies in fed.evaluated.values())
    )


# an engine: the plan that makes a round loop use it, and whether a loop did
ENGINES = {
    "sampled": (
        sampled_rounds, lambda fed: evaluated_off_path(fed)
        and all(run.local.sampler is not None for run in fed.runs)
    ),
    "split": (split_stacks, lambda fed: all(run.local.parts == 2 for run in fed.runs)),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_every_engine_matches_pins(name, engine, tmp_path):
    """Batches drawn ahead in a sampler process with the global model
    evaluated one round behind in an evaluator process, or a stack split
    over two processes, give the same bytes."""
    plan, used = ENGINES[engine]
    built = []
    with plan():
        assert digests(name, tmp_path, built) == GOLDEN[name]
    assert used(built[0])
