"""The benchmark's trace harness still sees every layer it wraps.

`perfbench/probe.py --mode trace` patches `learn.fit`, `learn.Model.predict`
and the `rfe`/`evaluate` entry points by name from outside the package. If
a refactor calls around one of those names, the counts below drop. At
d = 12 features (two peaks per transform):
- `eval --rfe on --reps 1`: (d - 1) ranking fits + d subset fits, and a
  train and a test predict per subset;
- `transfer --rfe on`: (d - 1) ranking fits, 5 inner splits per subset
  size and the final fit; a predict per inner split, and a train and a
  target predict for the final model.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chatterkit
from chatterkit import cli

ROOT = Path(__file__).resolve().parents[1]
D = 12


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth8")
    assert cli.main(["synth", "--out-dir", str(out), "--n", "8", "--seed", "0"]) == 0
    return str(out / "manifest.json")


def _trace(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(chatterkit.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), "--mode", "trace",
         "--out", str(out), "--", *argv, "--out", str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["calls"]


def test_eval_rf_rfe_counts(manifest, tmp_path):
    calls = _trace(tmp_path, "eval", "--manifest", manifest, "--classifier", "rf",
                   "--rfe", "on", "--reps", "1")
    assert calls["learn.fit.rf"] == (D - 1) + D == 23
    assert calls["learn.predict"] == 2 * D == 24
    assert calls["rfe.rank"] == 1


def test_transfer_lr_rfe_counts(manifest, tmp_path):
    calls = _trace(tmp_path, "transfer", "--manifest", manifest, "--classifier", "lr",
                   "--rfe", "on", "--source-config", "synth_a", "--target-config", "synth_b")
    assert calls["learn.fit.lr"] == (D - 1) + 5 * D + 1 == 72
    assert calls["learn.predict"] == 5 * D + 2 == 62
    assert calls["rfe.rank"] == 1
