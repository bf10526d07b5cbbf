"""The benchmark's checks pass on today's outputs and fail on corrupted ones.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os

import numpy as np
import pytest

import checks
import corpus
import run
from chatterkit import peaks, transform
from chatterkit.dataset import CuttingConfig, RawLabel, TimeSeries

SEED = 3


def fails(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


@pytest.fixture(scope="module")
def record():
    """One rfe_trees record: its truth, samples and the program's transforms."""
    truth = corpus.plan(corpus.RFE_TREES, SEED)[1]
    x = corpus.samples(truth, SEED, "rfe_trees")
    ts = TimeSeries(samples=x, sample_rate_hz=truth.sample_rate_hz,
                    config=CuttingConfig(7.62, 320.0, 0.0127, "C"),
                    label=RawLabel(truth.label), record_id=truth.record_id)
    return truth, ts, transform.amplitude_spectrum(ts), transform.autocorrelation(ts)


def test_corpus_is_seeded_and_round_trips_through_text(tmp_path):
    manifest = corpus.write(corpus.TRANSFER_LINEAR, SEED, tmp_path)
    entries = json.loads(manifest.read_text())
    name, truths = "transfer_linear", corpus.plan(corpus.SPECS["transfer_linear"], SEED)
    assert len(entries) == len(truths)
    assert [e["record_id"] for e in entries] == [t.record_id for t in truths]
    lines = (tmp_path / entries[5]["file"]).read_text().splitlines()
    parsed = np.array([float(v) for v in lines[1:]])
    checks.parsed_equals_generated(parsed, corpus.samples(truths[5], SEED, name))
    other = corpus.samples(corpus.plan(corpus.TRANSFER_LINEAR, SEED + 1)[5], SEED + 1, name)
    fails(checks.parsed_equals_generated, parsed, other)


def test_bayes_accuracy_closed_form():
    assert corpus.uniform_bayes_accuracy((0.5, 1.5), (1.1, 2.1)) == pytest.approx(0.8)
    assert corpus.uniform_bayes_accuracy((0.0, 1.0), (2.0, 3.0)) == 1.0
    assert corpus.uniform_bayes_accuracy((0.0, 1.0), (0.0, 1.0)) == 0.5
    assert corpus.rfe_trees_bayes_accuracy() == pytest.approx(0.8)


def test_parsed_samples():
    x = np.linspace(-1.0, 1.0, 101)
    checks.parsed_equals_generated(x.copy(), x)
    fails(checks.parsed_equals_generated, x[:-1], x)
    bent = x.copy()
    bent[50] = np.nextafter(bent[50], 2.0)
    fails(checks.parsed_equals_generated, bent, x)


def test_decimated_length():
    checks.decimated_length(320000, 20000, 10000.0, 10000.0)
    fails(checks.decimated_length, 320000, 20001, 10000.0, 10000.0)
    fails(checks.decimated_length, 320000, 20000, 20000.0, 10000.0)


def test_fft_tone_and_harmonic(record):
    truth, ts, fft, _ = record
    n, nfft = ts.samples.size, fft.meta["nfft"]
    tone = (nfft, n, truth.tone_hz, truth.amp, truth.noise_std)
    harmonic = (nfft, n, 2 * truth.tone_hz, truth.harmonic_amp, truth.noise_std,
                1.5 * truth.tone_hz)
    for args in (tone, harmonic):
        checks.tone_peak(fft.xs, fft.ys, *args)
        fails(checks.tone_peak, fft.xs, np.roll(fft.ys, 3), *args)
        fails(checks.tone_peak, fft.xs, 0.5 * fft.ys, *args)
        fails(checks.tone_peak, fft.xs, 1.2 * fft.ys, *args)


def test_scalloping_floor_is_the_worst_bin():
    n, nfft = 10000, 16384
    k = np.arange(nfft // 2 + 1)
    worst = None
    for offset in np.linspace(0.0, 1.0, 41):
        freq = (100 + offset) / nfft  # cycles per sample, between two bins
        mag = np.abs(np.fft.rfft(np.exp(2j * np.pi * freq * np.arange(n)).real, nfft))
        best = mag[k[90:110]].max()
        worst = best if worst is None else min(worst, best)
    floor = checks.scalloping_floor(n, nfft) / 2
    assert floor * 0.99 <= worst <= floor * 1.01


def test_spectral_energy(record):
    _, ts, fft, _ = record
    energy = transform.spectral_energy(fft)
    checks.spectral_energy(energy, ts.samples)
    fails(checks.spectral_energy, energy * (1 + 1e-6), ts.samples)


def test_acf_brute_force(record):
    _, ts, _, acf = record
    checks.acf_brute_force(acf.ys, ts.samples)
    for lag in checks.acf_lags(len(acf.ys) - 1):
        ys = np.array(acf.ys)
        ys[lag] += 1e-6
        fails(checks.acf_brute_force, ys, ts.samples)


def test_peak_properties(record):
    _, _, fft, _ = record
    constraints = peaks.PeakConstraints(alpha=0.1, mpd=500, n_peaks=5)
    found = [(p.x, p.y, p.index) for p in peaks.find_peaks(fft, constraints)]
    assert len(found) == 5
    checks.peaks_count(found, 5)
    checks.peaks_sorted(found)
    checks.peaks_distance(found, 500)
    checks.peaks_height(found, fft.xs, fft.ys, 0.1)

    fails(checks.peaks_count, found, 4)
    fails(checks.peaks_sorted, found[::-1])
    i = found[0][2] + 1
    near = sorted(found + [(fft.xs[i], fft.ys[i], i)])
    fails(checks.peaks_distance, near, 500)
    low = int(np.argmin(fft.ys))
    fails(checks.peaks_height, found + [(fft.xs[low], fft.ys[low], low)], fft.xs, fft.ys, 0.1)
    x, y, i = found[0]
    fails(checks.peaks_height, [(x, y * 1.01, i)], fft.xs, fft.ys, 0.1)


def _report(**row):
    base = {"classifier": "rf", "rfe": True, "mean_train": 1.0, "std_train": 0.0,
            "mean_test": 0.9, "std_test": 0.0, "n_rep": 1}
    return json.dumps({"results": [{**base, **row}]}).encode()


def test_report_checks():
    good = _report()
    checks.accuracies_in_range(good)
    checks.report_matches_request(good, "rf", True, 1)
    checks.accuracy_at_least(good, "mean_test", 0.65)
    checks.identical(good, _report())

    fails(checks.accuracies_in_range, _report(mean_test=7.5))
    fails(checks.accuracies_in_range, _report(std_train=-0.1))
    fails(checks.accuracies_in_range, b"")
    fails(checks.accuracies_in_range, b'{"results": []}')
    fails(checks.report_matches_request, _report(n_rep=10), "rf", True, 1)
    fails(checks.report_matches_request, _report(classifier="gb"), "rf", True, 1)
    fails(checks.report_matches_request, good, "rf", False, 1)
    fails(checks.accuracy_at_least, _report(mean_test=0.6), "mean_test", 0.65)
    fails(checks.identical, _report(mean_test=0.91), good)
    fails(checks.exit_code, 1)


def test_a_call_that_writes_no_report_fails(tmp_path):
    """A report left by an earlier call is removed, not read as this call's."""
    report = tmp_path / "report.json"
    report.write_bytes(_report())
    proc, (raw,) = run.spawn_fresh(["-c", "pass"], dict(os.environ), tmp_path / "log",
                                   [report])
    assert proc.code == 0 and raw == b""
    tally = checks.Tally()
    run.check_report(tally, run.WORKLOADS["rfe_trees"].calls[0], raw, _report())
    assert tally.attempted == 4 and tally.failed == 4


def test_tally_counts_attempts_and_failures():
    tally = checks.Tally()
    tally.run("ok", checks.exit_code, 0)
    tally.run("bad", checks.exit_code, 2)
    tally.add({"attempted": 3, "failed": 1, "messages": ["x: y"]})
    assert (tally.attempted, tally.failed) == (5, 2)
    assert tally.messages == ["bad: exit code 2", "x: y"]
