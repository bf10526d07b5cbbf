"""Acceptance suite: end-to-end behavioral criteria for the pipeline.

Each test states its criterion and (where meaningful) asserts a runtime
budget. Criterion 8 exercises a real recorded corpus and only runs when
CHATTER_REAL_MANIFEST points at its manifest.
"""

import json
import os
import time

import numpy as np
import pytest

from chatterkit import evaluate, learn, synthgen
from chatterkit.cli import main
from chatterkit.featurize import FeatureMatrix, PipelineConfig, build_matrix, feature_names
from chatterkit.dataset import LabeledDataset, load_manifest, split_by_config
from chatterkit.peaks import min_peak_height
from chatterkit.rfe import rank_features
from chatterkit.transform import (
    amplitude_spectrum,
    autocorrelation,
    spectral_energy,
)

# frozen experiment constants for criterion 2 (planted-matrix design)
PLANTED_DATA_SEED = 47
PLANTED_EVAL_SEED = 3
PLANTED_STRENGTH = 1.0
PLANTED_SIGNAL_STD = 0.85

SYNTH_SEED = 0
EVAL_SEED = 1


@pytest.fixture(scope="module")
def synth_matrices():
    """Feature matrices for the stock A/B synthetic configurations."""
    spec_a, spec_b = synthgen.default_spec_pair(seed=SYNTH_SEED)
    ds = synthgen.make_dataset(spec_a, spec_b)
    groups = split_by_config(ds)
    fm_a = build_matrix(groups["synth_a"], PipelineConfig(n_peaks=2))
    fm_b = build_matrix(groups["synth_b"], PipelineConfig(n_peaks=2))
    assert fm_a.n_rows == 60 and fm_b.n_rows == 60
    return fm_a, fm_b


def planted_matrix(seed=PLANTED_DATA_SEED):
    """60 records x 30 features with exactly 2 informative columns."""
    rng = np.random.default_rng(seed)
    n = 60
    y = np.arange(n) % 2
    shift = (2.0 * y - 1.0) * PLANTED_STRENGTH
    X = np.empty((n, 30))
    X[:, 2:] = rng.standard_t(2, size=(n, 28))
    X[:, 0] = shift + rng.normal(0, PLANTED_SIGNAL_STD, n)
    X[:, 1] = shift + rng.normal(0, PLANTED_SIGNAL_STD, n)
    return FeatureMatrix(
        X=X, y=y, feature_names=tuple(feature_names(5))
    )


def test_criterion_1_feature_cardinality():
    """n_peaks=5 -> 30 features; n_peaks=2 -> 12, FFT/PSD/ACF blocks."""
    t0 = time.time()
    names5 = feature_names(5)
    names2 = feature_names(2)
    assert len(names5) == 30
    assert len(names2) == 12
    assert names2[0:4] == ["fft_p1_x", "fft_p1_y", "fft_p2_x", "fft_p2_y"]
    assert names2[4:8] == ["psd_p1_x", "psd_p1_y", "psd_p2_x", "psd_p2_y"]
    assert names2[8:12] == ["acf_p1_x", "acf_p1_y", "acf_p2_x", "acf_p2_y"]
    ts = synthgen.make_signal(1, synthgen.SynthSpec(seed=3), 0)
    from chatterkit.featurize import extract_features

    assert extract_features(ts, PipelineConfig(n_peaks=2)).size == 12
    assert time.time() - t0 < 1.0


def test_criterion_2_rfe_shrinks_overfitting_gap():
    """Without RFE every classifier overfits (gap >= 15 points); with RFE
    the gap shrinks by >= 50% for at least 3 of 4 classifiers."""
    t0 = time.time()
    fm = planted_matrix()
    gaps, shrinks = {}, {}
    for kind in learn.KINDS:
        r0 = evaluate.repeated_split_eval(
            fm, kind, use_rfe=False, n_rep=10, seed=PLANTED_EVAL_SEED
        )
        gap0 = r0.mean_train - r0.mean_test
        r1 = evaluate.repeated_split_eval(
            fm, kind, use_rfe=True, n_rep=10, seed=PLANTED_EVAL_SEED
        )
        gap1 = r1.mean_train - r1.mean_test
        gaps[kind] = gap0
        shrinks[kind] = (gap0 - gap1) / gap0
        print(f"criterion2 {kind}: gap {gap0:.3f} -> {gap1:.3f} "
              f"(shrink {shrinks[kind]:.2f})")
    assert all(g >= 0.15 for g in gaps.values()), gaps
    assert sum(s >= 0.5 - 1e-9 for s in shrinks.values()) >= 3, shrinks
    assert time.time() - t0 < 180.0


def test_criterion_3_same_config_accuracy(synth_matrices):
    """RF and GB with RFE reach mean test accuracy >= 0.95 on config A."""
    t0 = time.time()
    fm_a, _ = synth_matrices
    for kind in ("rf", "gb"):
        res = evaluate.repeated_split_eval(
            fm_a, kind, use_rfe=True, n_rep=10, seed=EVAL_SEED
        )
        print(f"criterion3 {kind}: mean_test {res.mean_test:.3f}")
        assert res.mean_test >= 0.95
    assert time.time() - t0 < 120.0


def test_criterion_4_transfer_degradation(synth_matrices):
    """A->B accuracy drops >= 20 points below same-config; B->B >= 0.95."""
    t0 = time.time()
    fm_a, fm_b = synth_matrices
    for kind in learn.KINDS:
        same = evaluate.transfer_eval(fm_a, fm_a, kind, seed=EVAL_SEED)
        cross = evaluate.transfer_eval(fm_a, fm_b, kind, seed=EVAL_SEED)
        back = evaluate.transfer_eval(fm_b, fm_b, kind, seed=EVAL_SEED)
        print(f"criterion4 {kind}: same {same.test_accuracy:.3f} "
              f"cross {cross.test_accuracy:.3f} self-B {back.test_accuracy:.3f}")
        assert cross.test_accuracy <= same.test_accuracy - 0.20
        assert back.test_accuracy >= 0.95
    assert time.time() - t0 < 120.0


def test_criterion_5_cv_variance_reduction(synth_matrices):
    """Across 10 root seeds, 10-fold CV has a smaller test-accuracy std
    than 10x repeated splits for at least 3 of 4 classifiers."""
    t0 = time.time()
    fm_a, _ = synth_matrices
    wins = 0
    for kind in learn.KINDS:
        cv_stds, split_stds = [], []
        for seed in range(10):
            cv_stds.append(evaluate.kfold_cv(fm_a, kind, k=10, seed=seed).std_test)
            split_stds.append(
                evaluate.repeated_split_eval(fm_a, kind, n_rep=10, seed=seed).std_test
            )
        cv_mean, split_mean = np.mean(cv_stds), np.mean(split_stds)
        print(f"criterion5 {kind}: cv std {cv_mean:.4f} vs split std {split_mean:.4f}")
        wins += cv_mean <= split_mean
    assert wins >= 3
    assert time.time() - t0 < 600.0


def test_criterion_6_numerical_properties():
    """Spot checks of the numerical property suite (the full versions
    live in the per-module tests)."""
    t0 = time.time()
    rng = np.random.default_rng(0)

    # Parseval: time-domain energy of the demeaned signal = spectral energy
    ts = synthgen.make_signal(1, synthgen.SynthSpec(seed=4), 0)
    seq = amplitude_spectrum(ts)
    x = ts.samples - ts.samples.mean()
    assert abs(spectral_energy(seq) - float(x @ x)) <= 1e-6 * float(x @ x)

    # ACF: lag zero is 1 and matches the brute-force definition
    sig = rng.normal(size=257)
    seq = autocorrelation_of(sig)
    assert seq.ys[0] == pytest.approx(1.0)
    demeaned = sig - sig.mean()
    denom = float(demeaned @ demeaned)
    for lag in (1, 5, 100):
        brute = float(demeaned[: sig.size - lag] @ demeaned[lag:]) / denom
        assert abs(seq.ys[lag] - brute) <= 1e-9

    # MPH endpoints are the exact percentiles
    ys = rng.uniform(size=400)
    from chatterkit.transform import IndexedSequence, Kind

    iseq = IndexedSequence(np.arange(400.0), ys, Kind.FFT)
    assert min_peak_height(iseq, 0.0) == pytest.approx(np.percentile(ys, 5))
    assert min_peak_height(iseq, 1.0) == pytest.approx(np.percentile(ys, 95))

    # gradient check at one random point
    from chatterkit.learn import logistic_loss_grad

    Z = rng.normal(size=(20, 3))
    ysig = rng.choice([-1.0, 1.0], size=20)
    w, b = rng.normal(size=3), 0.3
    _, gw, _ = logistic_loss_grad(w, b, Z, ysig, 1e-4)
    eps = 1e-6
    d = np.array([eps, 0, 0])
    lp, _, _ = logistic_loss_grad(w + d, b, Z, ysig, 1e-4)
    lm, _, _ = logistic_loss_grad(w - d, b, Z, ysig, 1e-4)
    assert abs((lp - lm) / (2 * eps) - gw[0]) <= 1e-5

    # RFE output is a permutation; boosting loss is non-increasing
    X = rng.normal(size=(30, 6))
    yy = np.arange(30) % 2
    order = rank_features(X, yy, "lr").order
    assert sorted(order) == list(range(6))
    from chatterkit.trees import GradientBoosting

    gb = GradientBoosting().fit(X, yy)
    assert np.all(np.diff(gb.loss_history_) <= 1e-12)
    assert time.time() - t0 < 300.0


def autocorrelation_of(samples):
    from chatterkit.dataset import CuttingConfig, RawLabel, TimeSeries

    ts = TimeSeries(
        samples=np.asarray(samples, dtype=float),
        sample_rate_hz=1000.0,
        config=CuttingConfig(5.08, 320.0, 0.0127, "t"),
        label=RawLabel.STABLE,
        record_id="t0",
    )
    return autocorrelation(ts)


def test_criterion_7_cli_determinism(tmp_path):
    """Same CLI invocation, same root seed => byte-identical outputs, for
    every subcommand that writes one."""
    t0 = time.time()
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out-dir", str(corpus), "--n", "3", "--seed", "5"]) == 0
    m = ["--manifest", str(corpus / "manifest.json")]
    rf = ["--classifier", "rf", "--seed", "9"]
    commands = {
        "eval": ["eval", *m, "--config-id", "synth_a", *rf, "--out"],
        "cv": ["cv", *m, "--config-id", "synth_a", *rf, "--folds", "3", "--out"],
        "transfer": ["transfer", *m, "--source-config", "synth_a",
                     "--target-config", "synth_b", *rf, "--rfe", "on", "--out"],
        "rank-report": ["rank-report", *m, "--config-id", "synth_a", *rf,
                        "--reps", "3", "--out"],
        "features": ["features", *m, "--config-id", "synth_a", "--features-out"],
        "dump-transform": ["dump-transform", *m, "--record-id", "synth_b_chatter_0",
                           "--kind", "acf", "--out"],
    }
    for name, args in commands.items():
        out1, out2 = tmp_path / f"{name}1.out", tmp_path / f"{name}2.out"
        assert main(args + [str(out1)]) == 0, name
        assert main(args + [str(out2)]) == 0, name
        assert out1.read_bytes() == out2.read_bytes(), name
    assert time.time() - t0 < 60.0


@pytest.mark.skipif(
    "CHATTER_REAL_MANIFEST" not in os.environ,
    reason="real recorded corpus not available (set CHATTER_REAL_MANIFEST)",
)
def test_criterion_8_real_data_optional():
    """On the recorded turning corpus: RF+RFE on the 5.08 cm group lands
    in [0.85, 1.00] and 5.08 -> 11.43 cm transfer within 10 points of
    0.856."""
    ds = load_manifest(os.environ["CHATTER_REAL_MANIFEST"])
    groups = split_by_config(ds)
    ids = sorted(groups)
    src_id = next(i for i in ids if "5.08" in i or "overhang_5.08" in i)
    tgt_id = next(i for i in ids if "11.43" in i)
    fm_src = build_matrix(groups[src_id], PipelineConfig(n_peaks=2))
    fm_tgt = build_matrix(groups[tgt_id], PipelineConfig(n_peaks=2))
    res = evaluate.repeated_split_eval(fm_src, "rf", use_rfe=True, seed=0)
    assert 0.85 <= res.mean_test <= 1.00
    tr = evaluate.transfer_eval(fm_src, fm_tgt, "rf", use_rfe=True, seed=0)
    assert abs(tr.test_accuracy - 0.856) <= 0.10
