import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chatterkit import synthgen
from chatterkit.errors import SynthSpecError
from chatterkit.dataset import RawLabel, load_manifest
from chatterkit.peaks import min_peak_height
from chatterkit.transform import amplitude_spectrum


def test_signal_deterministic():
    spec = synthgen.SynthSpec(seed=5)
    a = synthgen.make_signal(1, spec, 3)
    b = synthgen.make_signal(1, spec, 3)
    assert np.array_equal(a.samples, b.samples)


def test_records_differ_across_index_and_class():
    spec = synthgen.SynthSpec(seed=5)
    a = synthgen.make_signal(1, spec, 0).samples
    b = synthgen.make_signal(1, spec, 1).samples
    c = synthgen.make_signal(0, spec, 0).samples
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dataset_counts_and_balance():
    spec_a, spec_b = synthgen.default_spec_pair(seed=1)
    ds = synthgen.make_dataset(spec_a, spec_b)
    assert len(ds.records) == 120
    labels = [r.label for r in ds.records]
    assert labels.count(RawLabel.CHATTER) == 60
    assert labels.count(RawLabel.STABLE) == 60
    assert {r.config.config_id for r in ds.records} == {"synth_a", "synth_b"}


def test_chatter_tone_dominates_spectrum():
    spec = synthgen.SynthSpec(seed=7)
    for i in range(5):
        ts = synthgen.make_signal(1, spec, i)
        seq = amplitude_spectrum(ts)
        bin_width = seq.xs[1] - seq.xs[0]
        top = seq.xs[np.argmax(seq.ys)]
        assert abs(top - spec.chatter_freq_hz) <= bin_width + 1e-9


def test_stable_tone_scaled_down():
    spec = synthgen.SynthSpec(seed=8)
    chatter_max = np.max(amplitude_spectrum(synthgen.make_signal(1, spec, 0)).ys)
    stable_max = np.max(amplitude_spectrum(synthgen.make_signal(0, spec, 0)).ys)
    assert stable_max < 0.5 * chatter_max
    # the stable maximum still clears its own spectrum's peak threshold,
    # so peak detection works on both classes
    seq = amplitude_spectrum(synthgen.make_signal(0, spec, 0))
    assert stable_max >= min_peak_height(seq, 0.5)


def test_classes_separable_by_peak_amplitude():
    """Nearest-centroid on the dominant FFT amplitude alone splits classes."""
    spec = synthgen.SynthSpec(n_per_class=15, seed=9)
    amps, labels = [], []
    for rec in synthgen.make_config_records(spec):
        amps.append(float(np.max(amplitude_spectrum(rec).ys)))
        labels.append(1 if rec.label is RawLabel.CHATTER else 0)
    amps, labels = np.array(amps), np.array(labels)
    c0, c1 = amps[labels == 0].mean(), amps[labels == 1].mean()
    pred = (np.abs(amps - c1) < np.abs(amps - c0)).astype(int)
    assert np.mean(pred == labels) >= 0.9


def test_spec_pair_shifts_frequency_and_scale():
    spec_a, spec_b = synthgen.default_spec_pair(seed=2)
    assert spec_b.chatter_freq_hz == 2 * spec_a.chatter_freq_hz
    assert spec_b.chatter_amp > spec_a.chatter_amp
    assert spec_a.config_id != spec_b.config_id


def test_spec_validation():
    with pytest.raises(SynthSpecError, match="chatter_freq_hz 6000.0"):
        synthgen.SynthSpec(chatter_freq_hz=6000.0)  # above Nyquist
    with pytest.raises(SynthSpecError, match="chatter_amp 0.1"):
        synthgen.SynthSpec(chatter_amp=0.1, noise_std=0.1)
    # the checks must not vanish with assert statements under python -O
    env = dict(os.environ, PYTHONPATH=str(Path(synthgen.__file__).parents[1]))
    code = ("from chatterkit.synthgen import SynthSpec; "
            "SynthSpec(chatter_amp=0.1, noise_std=0.1, chatter_freq_hz=9000.0)")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "SynthSpecError: chatter_freq_hz 9000.0" in proc.stderr


@pytest.mark.parametrize("n", (0, -1))
def test_spec_needs_a_record_per_class(n):
    with pytest.raises(SynthSpecError, match=f"n_per_class {n} must be >= 1"):
        synthgen.SynthSpec(n_per_class=n)


def test_dataset_configs_must_differ():
    spec_a, spec_b = synthgen.default_spec_pair(seed=1)
    with pytest.raises(SynthSpecError, match="chatter_freq_hz 800.0"):
        synthgen.make_dataset(spec_a, replace(spec_b, chatter_freq_hz=800.0))
    with pytest.raises(SynthSpecError, match="config_id 'synth_a'"):
        synthgen.make_dataset(spec_a, replace(spec_b, config_id="synth_a"))


def test_write_corpus_round_trip(tmp_path):
    spec_a, spec_b = synthgen.default_spec_pair(seed=3, n_per_class=2)
    manifest = synthgen.write_corpus(tmp_path, spec_a, spec_b)
    ds = load_manifest(manifest)
    assert len(ds.records) == 8
    original = synthgen.make_dataset(spec_a, spec_b)
    by_id = {r.record_id: r for r in original.records}
    for rec in ds.records:
        assert np.array_equal(rec.samples, by_id[rec.record_id].samples)
