"""Golden bytes of the outputs the CSV pins do not cover: ``summary.json``
and ``slimfl analyze``.

``summary.json`` is pinned for ``slimfl`` and ``vanilla-0.5x`` from runs
long enough (120 rounds, evaluated every round) that ``convergence_round``
is a number, so the convergence detection, the energy report and both
final-accuracy columns are in the bytes.  ``slimfl analyze`` is pinned for
``configs/reference.ini`` (Rayleigh: decode probabilities, noise bound and
gap-bound curve) and for the same file under Rician fading.  Re-pin only
for a deliberate, documented output change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from slimfl.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.ini"

SUMMARY_RUN = """
[experiment]
seeds = 1
rounds = 120
output_dir = out
eval_every = 1

[dataset]
kind = synth
classes = 4
per_class = 50
test_per_class = 25
dim = 8
spread = 0.3
alpha = 0.5

[model]
hidden = 8

[training]
lr = 0.05
batch_size = 16

[federation]
devices = 4
scheme = {scheme}
"""

SUMMARY_GOLDEN = {
    "slimfl": "8143e1d1b97470b17674e1697b5331774fb658a38525d9bb72b3a3a2f1d2439b",
    "vanilla-0.5x": "b6053c22a9edbc7f9f05c041973ac891ff37348e8e1e8d0c4c1e82bcfacf1677",
}

ANALYZE_GOLDEN = {
    "rayleigh": "57d3016b5054815a090f66d56264fe00f384d1c947c3f7b99cbd33542808ba9a",
    "rician": "775f890b70561c12eea815548b5761a551c6bff9d13419a21b65cb0b2012f2bb",
}


@pytest.mark.parametrize("scheme", sorted(SUMMARY_GOLDEN))
def test_summary_json_matches_pin(scheme, tmp_path, monkeypatch, capsys):
    # a relative output_dir keeps the CSV path inside summary.json fixed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.ini").write_text(SUMMARY_RUN.format(scheme=scheme))
    assert main(["run", "exp.ini"]) == 0
    data = (tmp_path / "out" / "summary.json").read_bytes()
    (run,) = json.loads(data)["runs"]
    assert isinstance(run["convergence_round"], int)
    assert hashlib.sha256(data).hexdigest() == SUMMARY_GOLDEN[scheme]


@pytest.mark.parametrize("fading", sorted(ANALYZE_GOLDEN))
def test_analyze_json_matches_pin(fading, tmp_path, capsys):
    text = REFERENCE.read_text()
    if fading != "rayleigh":
        text = text.replace("fading = rayleigh", f"fading = {fading}")
    path = tmp_path / "exp.ini"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 0
    data = capsys.readouterr().out.encode()
    assert (json.loads(data)["decode_probs"] is None) == (fading != "rayleigh")
    assert hashlib.sha256(data).hexdigest() == ANALYZE_GOLDEN[fading]
