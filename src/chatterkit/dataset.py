"""Labeled accelerometer dataset loading.

A dataset is described by a JSON manifest: an array of objects with keys
`file`, `sample_rate_hz`, `overhang_cm`, `rpm`, `depth_cm`, `label`.
Signal files are single-column CSV, one acceleration sample (m/s^2) per
line, optionally with a non-numeric header line.
"""

import enum
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ManifestError, SignalLoadError


class RawLabel(enum.Enum):
    STABLE = "stable"
    INTERMEDIATE = "intermediate"
    CHATTER = "chatter"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class CuttingConfig:
    overhang_cm: float
    spindle_rpm: float
    depth_of_cut_cm: float
    config_id: str

    def __post_init__(self):
        if self.overhang_cm <= 0 or self.spindle_rpm <= 0 or self.depth_of_cut_cm <= 0:
            raise ManifestError(
                f"config {self.config_id!r}: overhang/rpm/depth must be positive"
            )


@dataclass(frozen=True)
class TimeSeries:
    samples: np.ndarray
    sample_rate_hz: float
    config: CuttingConfig
    label: RawLabel
    record_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "samples", np.array(self.samples, dtype=float))
        if self.samples.size == 0:
            raise SignalLoadError(f"record {self.record_id!r}: empty signal")
        if self.sample_rate_hz <= 0:
            raise SignalLoadError(f"record {self.record_id!r}: sample rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise SignalLoadError(f"record {self.record_id!r}: non-finite sample values")
        self.samples.setflags(write=False)


@dataclass(frozen=True)
class LabeledDataset:
    records: tuple
    manifest_path: str = ""

    def __len__(self):
        return len(self.records)

    @property
    def learnable(self):
        """Records usable for training (everything not tagged unknown)."""
        return tuple(r for r in self.records if r.label is not RawLabel.UNKNOWN)

    @property
    def excluded(self):
        return tuple(r for r in self.records if r.label is RawLabel.UNKNOWN)


def to_binary(label):
    """Map a raw label to the binary class, or None for excluded records.

    Stable -> 0, intermediate and chatter collapse to 1, unknown -> None.
    """
    if label is RawLabel.STABLE:
        return 0
    if label in (RawLabel.INTERMEDIATE, RawLabel.CHATTER):
        return 1
    return None


def _read_signal(path):
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if lineno == 1:  # optional header
                    continue
                raise SignalLoadError(f"{path}: bad value on line {lineno}: {text!r}")
    if not values:
        raise SignalLoadError(f"{path}: no samples")
    return np.array(values, dtype=float)


def load_manifest(path):
    """Load a JSON manifest and every signal file it references."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON ({exc})")
    if not isinstance(entries, list):
        raise ManifestError(f"{path}: manifest must be a JSON array")

    required = {"file", "sample_rate_hz", "overhang_cm", "rpm", "depth_cm", "label"}
    records = []
    seen_configs = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not required.issubset(entry):
            missing = required - set(entry) if isinstance(entry, dict) else required
            raise ManifestError(f"{path}: entry {i}: missing keys {sorted(missing)}")
        try:
            label = RawLabel(str(entry["label"]).lower())
        except ValueError:
            raise ManifestError(f"{path}: entry {i}: unknown label {entry['label']!r}")
        sig_path = path.parent / entry["file"]
        if not sig_path.exists():
            raise ManifestError(f"{path}: entry {i}: signal file not found: {sig_path}")
        config = CuttingConfig(
            overhang_cm=float(entry["overhang_cm"]),
            spindle_rpm=float(entry["rpm"]),
            depth_of_cut_cm=float(entry["depth_cm"]),
            config_id=entry.get("config_id", f"overhang_{entry['overhang_cm']}cm"),
        )
        # A config_id names one parameter triple; reuse with different
        # parameters would silently merge distinct configurations.
        params = (config.overhang_cm, config.spindle_rpm, config.depth_of_cut_cm)
        if seen_configs.setdefault(config.config_id, params) != params:
            raise ManifestError(
                f"{path}: entry {i}: config_id {config.config_id!r} reused "
                "with different cutting parameters"
            )
        records.append(
            TimeSeries(
                samples=_read_signal(sig_path),
                sample_rate_hz=float(entry["sample_rate_hz"]),
                config=config,
                label=label,
                record_id=entry.get("record_id", f"{path.name}[{i}]"),
            )
        )
    return LabeledDataset(records=tuple(records), manifest_path=str(path))


def split_by_config(ds):
    """Partition a dataset by config_id, preserving record order."""
    groups = {}
    for rec in ds.records:
        groups.setdefault(rec.config.config_id, []).append(rec)
    return {
        cid: LabeledDataset(records=tuple(recs), manifest_path=ds.manifest_path)
        for cid, recs in groups.items()
    }
