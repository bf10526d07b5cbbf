"""Synthetic accelerometer-like signals with a controllable tonal signature.

Both classes carry a tone plus a weak second harmonic over broadband
noise: the chatter class at the configured chatter frequency and full
amplitude, the stable class as a scaled-down copy at a lower frequency
(weak tonal content is always present in cutting signals). Keeping the
stable class an exact scaled/shifted replica means no scale-invariant
statistic separates the classes; classifiers must key on absolute
frequencies and amplitudes, which is exactly what breaks when a second
configuration shifts both.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import CuttingConfig, LabeledDataset, RawLabel, TimeSeries
from .errors import SynthSpecError
from .seeds import rng_for

AMP_JITTER = 0.1
HARMONIC_RATIO = 0.3
# stable class = chatter signature scaled down and moved to a lower tone
STABLE_AMP_RATIO = 0.3
STABLE_FREQ_RATIO = 0.625


@dataclass(frozen=True)
class SynthSpec:
    n_per_class: int = 30
    sample_rate_hz: float = 10000.0
    duration_s: float = 1.0
    chatter_freq_hz: float = 800.0
    chatter_amp: float = 1.0
    noise_std: float = 0.1
    seed: int = 0
    config_id: str = "synth_a"
    overhang_cm: float = 5.08
    spindle_rpm: float = 320.0
    depth_of_cut_cm: float = 0.0127

    def __post_init__(self):
        if not self.n_per_class >= 1:
            raise SynthSpecError(f"n_per_class {self.n_per_class} must be >= 1")
        if not self.noise_std >= 0:  # also rejects NaN
            raise SynthSpecError(f"noise_std {self.noise_std} must be >= 0")
        if not self.chatter_freq_hz > 0:
            raise SynthSpecError(f"chatter_freq_hz {self.chatter_freq_hz} must be > 0")
        if not self.chatter_freq_hz < self.sample_rate_hz / 2:
            raise SynthSpecError(
                f"chatter_freq_hz {self.chatter_freq_hz} must lie below the "
                f"Nyquist frequency {self.sample_rate_hz / 2} Hz (sample_rate_hz / 2)"
            )
        if not self.chatter_amp > 3 * self.noise_std:  # separability margin
            raise SynthSpecError(
                f"chatter_amp {self.chatter_amp} must exceed 3 x noise_std "
                f"({3 * self.noise_std:g})"
            )

    @property
    def config(self):
        return CuttingConfig(
            overhang_cm=self.overhang_cm,
            spindle_rpm=self.spindle_rpm,
            depth_of_cut_cm=self.depth_of_cut_cm,
            config_id=self.config_id,
        )


def make_signal(cls, spec, index):
    """One record, deterministic per (spec.seed, cls, index)."""
    rng = rng_for(spec.seed, "synth", cls, index)
    n = int(round(spec.sample_rate_hz * spec.duration_s))
    t = np.arange(n) / spec.sample_rate_hz
    if cls == 1:
        scale, freq = 1.0, spec.chatter_freq_hz
    else:
        scale, freq = STABLE_AMP_RATIO, STABLE_FREQ_RATIO * spec.chatter_freq_hz
    amp = scale * spec.chatter_amp * (1.0 + rng.uniform(-AMP_JITTER, AMP_JITTER))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    phase2 = rng.uniform(0.0, 2.0 * np.pi)
    x = rng.normal(0.0, scale * spec.noise_std, size=n)
    x = x + amp * np.sin(2.0 * np.pi * freq * t + phase)
    x = x + HARMONIC_RATIO * amp * np.sin(2.0 * np.pi * 2.0 * freq * t + phase2)
    label = RawLabel.CHATTER if cls == 1 else RawLabel.STABLE
    return TimeSeries(
        samples=x,
        sample_rate_hz=spec.sample_rate_hz,
        config=spec.config,
        label=label,
        record_id=f"{spec.config_id}_{label.value}_{index}",
    )


def make_config_records(spec):
    records = []
    for i in range(spec.n_per_class):
        records.append(make_signal(0, spec, i))
        records.append(make_signal(1, spec, i))
    return records


def make_dataset(spec_a, spec_b):
    """Two pseudo-configurations with distinct tone frequencies."""
    if spec_a.chatter_freq_hz == spec_b.chatter_freq_hz:
        raise SynthSpecError(f"both configs have chatter_freq_hz {spec_a.chatter_freq_hz}")
    if spec_a.config_id == spec_b.config_id:
        raise SynthSpecError(f"both configs have config_id {spec_a.config_id!r}")
    records = make_config_records(spec_a) + make_config_records(spec_b)
    return LabeledDataset(records=tuple(records))


def default_spec_pair(seed=0, freq_a=800.0, freq_b=1600.0, n_per_class=30,
                      amp_b=None, noise_b=None):
    """The stock A/B pair used by the CLI and the acceptance experiments.

    Config B shifts the tone frequency and, by default, also rescales the
    amplitudes, emulating a structural change that moves both the
    resonance location and the response level.
    """
    spec_a = SynthSpec(n_per_class=n_per_class, chatter_freq_hz=freq_a, seed=seed,
                       config_id="synth_a", overhang_cm=5.08)
    spec_b = SynthSpec(
        n_per_class=n_per_class,
        chatter_freq_hz=freq_b,
        chatter_amp=4.0 if amp_b is None else amp_b,
        noise_std=0.4 if noise_b is None else noise_b,
        seed=seed + 1,
        config_id="synth_b",
        overhang_cm=11.43,
    )
    return spec_a, spec_b

