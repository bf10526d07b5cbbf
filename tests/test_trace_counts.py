"""The benchmark's trace harness still sees every layer it wraps.

`perfbench/probe.py --mode trace` patches `learn.fit`, `learn.Model.predict`
and the `rfe`/`evaluate` entry points by name from outside the package. If
a refactor calls around one of those names, the counts below drop. Every
protocol picks its RFE subset with `rfe.best_subset_for_split` (a span of
its own, holding `rfe.select_best_k`'s), which ranks with (d - 1) fits and
fits each of the d nested subsets once per scoring split, predicting that
split's scored rows; the chosen columns are then fitted once more, with a
train and a test predict. At d = 12 features (two peaks per transform):
- `eval --rfe on --reps 1`: one split scored on its own test rows;
- `cv --rfe on --folds 2`: the same, once per fold;
- `rank-report --reps 1`: `eval`'s selection on its split, but no final
  fit or predict (only the chosen columns are counted), plus a ranking
  of all rows;
- `transfer --rfe on`: 5 inner splits of the source per subset size, and
  the final model's train and target predicts.

The subset fits of each split go through `learn.fit_many`, which the probe
does not wrap. For lr and rf it calls `learn.fit` once per split, so they
are counted; svm trains them in lockstep without `learn.fit`, so an svm
trace counts only the ranking and final fits, while every predict stays.
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
    trace = json.loads(out.read_text())
    return trace["calls"], trace["counts"]


def test_eval_rf_rfe_counts(manifest, tmp_path):
    calls, counts = _trace(tmp_path, "eval", "--manifest", manifest, "--classifier", "rf",
                           "--rfe", "on", "--reps", "1")
    assert calls["learn.fit.rf"] == (D - 1) + D + 1 == 24
    assert calls["learn.predict"] == D + 2 == 14
    assert calls["rfe.rank"] == 1
    assert calls["rfe"] == 2
    # the split nodes of the 24 forests: a change to how they grow moves this
    assert counts["tree_nodes"] == 3197


def test_cv_lr_rfe_counts(manifest, tmp_path):
    calls, _ = _trace(tmp_path, "cv", "--manifest", manifest, "--classifier", "lr",
                      "--rfe", "on", "--folds", "2")
    assert calls["learn.fit.lr"] == 2 * ((D - 1) + D + 1) == 48
    assert calls["learn.predict"] == 2 * (D + 2) == 28
    assert calls["rfe.rank"] == 2
    assert calls["rfe"] == 4


def test_rank_report_lr_counts(manifest, tmp_path):
    calls, _ = _trace(tmp_path, "rank-report", "--manifest", manifest, "--classifier", "lr",
                      "--reps", "1")
    assert calls["learn.fit.lr"] == (D - 1) + D + (D - 1) == 34
    assert calls["learn.predict"] == D == 12
    assert calls["rfe.rank"] == 2
    assert calls["rfe"] == 2


def test_transfer_lr_rfe_counts(manifest, tmp_path):
    calls, _ = _trace(tmp_path, "transfer", "--manifest", manifest, "--classifier", "lr",
                      "--rfe", "on", "--source-config", "synth_a", "--target-config", "synth_b")
    assert calls["learn.fit.lr"] == (D - 1) + 5 * D + 1 == 72
    assert calls["learn.predict"] == 5 * D + 2 == 62
    assert calls["rfe.rank"] == 1
    assert calls["rfe"] == 2


def test_transfer_svm_rfe_counts(manifest, tmp_path):
    calls, _ = _trace(tmp_path, "transfer", "--manifest", manifest, "--classifier", "svm",
                      "--rfe", "on", "--source-config", "synth_a", "--target-config", "synth_b")
    assert calls["learn.fit.svm"] == (D - 1) + 1 == 12
    assert calls["learn.predict"] == 5 * D + 2 == 62
    assert calls["rfe.rank"] == 1
    assert calls["rfe"] == 2
