"""Seeded synthetic corpora for the benchmark, independent of chatterkit.

Every record is a tone plus its second harmonic over white Gaussian
noise:

    x[n] = A sin(2 pi f n / fs + phi1) + H A sin(2 pi 2f n / fs + phi2) + sigma e[n]

with A, phi1, phi2 and e drawn per record from a PCG64 stream seeded by
(seed, corpus tag, record index). Samples are written with repr(float),
so parsing them back gives the generated values bit for bit.

This module imports numpy only: a change to the program under test
cannot change the inputs the benchmark feeds it.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HARMONIC_RATIO = 0.3
NOISE_STD = 0.1

CORPUS_TAGS = {"ingest_160k": 160, "rfe_trees": 30, "transfer_linear": 20}


@dataclass(frozen=True)
class ClassSpec:
    """How one class of one config draws its records."""

    label: str  # "stable" or "chatter"
    tones_hz: tuple  # tone frequency drawn uniformly from these
    amp_range: tuple  # A ~ U(lo, hi)


@dataclass(frozen=True)
class ConfigSpec:
    config_id: str
    overhang_cm: float
    classes: tuple  # (stable ClassSpec, chatter ClassSpec)


@dataclass(frozen=True)
class CorpusSpec:
    name: str
    sample_rate_hz: float
    duration_s: float
    per_class: int  # records per class per config
    configs: tuple

    @property
    def n_samples(self):
        return int(round(self.sample_rate_hz * self.duration_s))


# 2 s captures at the paper's 160 kHz rate, two configs; the CLI selects
# config A, so config B is parsed (and today decimated) but never used.
INGEST_160K = CorpusSpec(
    name="ingest_160k",
    sample_rate_hz=160000.0,
    duration_s=2.0,
    per_class=2,
    configs=(
        ConfigSpec("A", 5.08, (ClassSpec("stable", (750.0,), (0.27, 0.33)),
                               ClassSpec("chatter", (1200.0,), (0.9, 1.1)))),
        ConfigSpec("B", 11.43, (ClassSpec("stable", (1050.0,), (0.54, 0.66)),
                                ClassSpec("chatter", (1700.0,), (1.8, 2.2)))),
    ),
)

# One 10 kHz config whose classes share their tones and draw amplitudes
# from overlapping ranges: no single split separates them, so the trees
# grow past stumps and RFE has real work to do. The tones (about 600, 850,
# 1100 and 1350 Hz) sit on bins of the 16384-point zero-padded FFT of a
# 1 s record, so a peak's height carries the amplitude without scalloping.
SHARED_TONES_HZ = tuple(m * 10000.0 / 16384 for m in (983, 1393, 1802, 2212))
RFE_TREES = CorpusSpec(
    name="rfe_trees",
    sample_rate_hz=10000.0,
    duration_s=1.0,
    per_class=20,
    configs=(
        ConfigSpec("C", 7.62, (
            ClassSpec("stable", SHARED_TONES_HZ, (0.5, 1.5)),
            ClassSpec("chatter", SHARED_TONES_HZ, (1.1, 2.1)),
        )),
    ),
)

# Two 10 kHz configs with separable classes (disjoint tones and
# amplitudes); config B moves every tone and doubles every amplitude.
TRANSFER_LINEAR = CorpusSpec(
    name="transfer_linear",
    sample_rate_hz=10000.0,
    duration_s=1.0,
    per_class=10,
    configs=(
        ConfigSpec("A", 5.08, (ClassSpec("stable", (700.0,), (0.25, 0.35)),
                               ClassSpec("chatter", (1200.0,), (0.9, 1.1)))),
        ConfigSpec("B", 11.43, (ClassSpec("stable", (1000.0,), (0.5, 0.7)),
                                ClassSpec("chatter", (1700.0,), (1.8, 2.2)))),
    ),
)


SPECS = {spec.name: spec for spec in (INGEST_160K, RFE_TREES, TRANSFER_LINEAR)}


@dataclass(frozen=True)
class RecordTruth:
    """What the generator planted in one record."""

    record_id: str
    config_id: str
    label: str
    index: int  # position in the corpus, keys the random stream
    sample_rate_hz: float
    n_samples: int
    tone_hz: float
    amp: float
    harmonic_amp: float
    noise_std: float


def _rng(seed, corpus_name, index, stream):
    entropy = [int(seed), CORPUS_TAGS[corpus_name], int(index), int(stream)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def plan(spec, seed):
    """The RecordTruth of every record, in manifest order.

    Over a class, the amplitudes are a stratified sample of U(lo, hi).
    """
    truths = []
    index = 0
    for cfg in spec.configs:
        for k in range(spec.per_class):
            for c, cls in enumerate(cfg.classes):
                # Record k of a class draws its amplitude from the k-th of
                # per_class equal strata of the class's range, and cycles
                # through the tones: every seed gets the same mix of easy
                # and overlapping records, so the work varies little by seed.
                lo, hi = cls.amp_range
                u = _rng(seed, spec.name, index, 0).uniform()
                amp = lo + (hi - lo) * (k + u) / spec.per_class
                tone = cls.tones_hz[(k + c) % len(cls.tones_hz)]
                truths.append(RecordTruth(
                    record_id=f"{spec.name}_{cfg.config_id}_{cls.label}_{k}",
                    config_id=cfg.config_id,
                    label=cls.label,
                    index=index,
                    sample_rate_hz=spec.sample_rate_hz,
                    n_samples=spec.n_samples,
                    tone_hz=tone,
                    amp=amp,
                    harmonic_amp=HARMONIC_RATIO * amp,
                    noise_std=NOISE_STD,
                ))
                index += 1
    return truths


def samples(truth, seed, corpus_name):
    """Regenerate one record's samples exactly."""
    rng = _rng(seed, corpus_name, truth.index, 1)
    phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    t = np.arange(truth.n_samples) / truth.sample_rate_hz
    w = 2.0 * math.pi * truth.tone_hz
    x = truth.noise_std * rng.standard_normal(truth.n_samples)
    x += truth.amp * np.sin(w * t + phi1)
    x += truth.harmonic_amp * np.sin(2.0 * w * t + phi2)
    return x


def write(spec, seed, out_dir):
    """Write the signal CSVs and manifest.json; return the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = {c.config_id: c for c in spec.configs}
    entries = []
    truths = plan(spec, seed)
    for truth in truths:
        fname = f"{truth.record_id}.csv"
        x = samples(truth, seed, spec.name)
        (out_dir / fname).write_text(
            "accel\n" + "\n".join(map(repr, x.tolist())) + "\n", encoding="utf-8"
        )
        entries.append({
            "file": fname,
            "sample_rate_hz": spec.sample_rate_hz,
            "overhang_cm": configs[truth.config_id].overhang_cm,
            "rpm": 320.0,
            "depth_cm": 0.0127,
            "label": truth.label,
            "config_id": truth.config_id,
            "record_id": truth.record_id,
        })
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return manifest


def uniform_bayes_accuracy(range0, range1):
    """Bayes accuracy for equal priors and A ~ U(range0) vs A ~ U(range1).

    The optimal rule picks the class with the higher density, so it errs
    only where both densities are positive, with half the mass there:
    accuracy = 1 - (1/2) * integral of min(p0, p1).
    """
    (a0, b0), (a1, b1) = range0, range1
    overlap = max(0.0, min(b0, b1) - max(a0, a1))
    return 1.0 - 0.5 * overlap * min(1.0 / (b0 - a0), 1.0 / (b1 - a1))


def rfe_trees_bayes_accuracy():
    stable, chatter = RFE_TREES.configs[0].classes
    return uniform_bayes_accuracy(stable.amp_range, chatter.amp_range)
