"""Labeled accelerometer datasets: the corpus format, read and written.

A dataset is described by a JSON manifest: an array of objects with keys
`file`, `sample_rate_hz`, `overhang_cm`, `rpm`, `depth_cm`, `label`.
Signal files are single-column CSV, one acceleration sample (m/s^2) per
line, optionally with a non-numeric header line. `load_manifest` reads a
corpus, `write_corpus` writes one, `atomic_write` writes every output.
"""

import enum
import errno
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ManifestError, OutputError, SignalLoadError


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


def _read_signal_lines(path):
    """Parse a signal file line by line; the source of every parse error."""
    values = []
    try:
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
    except UnicodeDecodeError as exc:
        raise SignalLoadError(f"{path}: not UTF-8 text ({exc.reason})")
    if not values:
        raise SignalLoadError(f"{path}: no samples")
    return np.array(values, dtype=float)


def _is_header(line):
    """Whether line 1 is not a number (skipping a blank one is harmless too).

    Strips like the line loop: float() alone keeps U+001C..U+001F.
    """
    try:
        float(line.strip())
    except ValueError:
        return True
    return False


def _read_signal(path):
    """The samples of a signal file as float64.

    numpy parses the file in one call, skipping a non-numeric first line.
    Anything it rejects or warns about (an empty file, `#`, `1_0`, two
    values on a line) is parsed again by `_read_signal_lines`, which gives
    the same values and raises the errors.
    """
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            skip = int(_is_header(fh.readline()))
            fh.seek(0)
            values = np.loadtxt(fh, comments=None, ndmin=2, skiprows=skip)
        if values.shape[1] == 1:
            return values.reshape(-1)
    except (ValueError, UserWarning):
        pass
    return _read_signal_lines(path)


def _positive(where, entry, key):
    """entry[key] as a positive finite float; else ManifestError names entry and key."""
    try:
        value = float(entry[key])
    except (TypeError, ValueError, OverflowError):
        value = np.nan
    if not (np.isfinite(value) and value > 0):
        raise ManifestError(
            f"{where}: {key} must be a positive finite number, got {entry[key]!r}")
    return value


def load_manifest(path, config_ids=None, record_ids=None, check_rate=None):
    """Load a JSON manifest and the signal files of the records asked for.

    Every entry is validated (keys, label, string file and ids, positive
    rate and cutting parameters, file existence, config_id reuse, repeated
    record_id); only the records of `config_ids` that are also in
    `record_ids`, in manifest order, are parsed and returned.
    None means every config, or every record. Each of `config_ids` must be
    in the manifest and then each of `record_ids` among those configs.
    `check_rate(record_id, sample_rate_hz)`, if given, runs on each of
    those records before any signal file is read.
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text ({exc.reason})")
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON ({exc})")
    if not isinstance(entries, list):
        raise ManifestError(f"{path}: manifest must be a JSON array")

    required = {"file", "sample_rate_hz", "overhang_cm", "rpm", "depth_cm", "label"}
    valid = []  # (record id, rate, label, signal path, config)
    seen_configs, seen_records = {}, {}
    for i, entry in enumerate(entries):
        where = f"{path}: entry {i}"
        if not isinstance(entry, dict) or not required.issubset(entry):
            missing = required - set(entry) if isinstance(entry, dict) else required
            raise ManifestError(f"{where}: missing keys {sorted(missing)}")
        try:
            label = RawLabel(str(entry["label"]).lower())
        except ValueError:
            raise ManifestError(f"{where}: unknown label {entry['label']!r}")
        config_id = entry.get("config_id", f"overhang_{entry['overhang_cm']}cm")
        record_id = entry.get("record_id", f"{path.name}[{i}]")
        for key, value in (("file", entry["file"]), ("config_id", config_id),
                           ("record_id", record_id)):
            if not isinstance(value, str):
                raise ManifestError(f"{where}: {key} must be a string, got {value!r}")
        if seen_records.setdefault(record_id, i) != i:
            raise ManifestError(f"{path}: entries {seen_records[record_id]} and {i} "
                                f"share record_id {record_id!r}")
        sig_path = path.parent / entry["file"]
        if not sig_path.is_file():
            raise ManifestError(f"{where}: signal file not found: {sig_path}")
        rate, overhang, rpm, depth = (
            _positive(where, entry, key)
            for key in ("sample_rate_hz", "overhang_cm", "rpm", "depth_cm"))
        config = CuttingConfig(overhang_cm=overhang, spindle_rpm=rpm,
                               depth_of_cut_cm=depth, config_id=config_id)
        # A config_id names one parameter triple; reuse with different
        # parameters would silently merge distinct configurations.
        params = (config.overhang_cm, config.spindle_rpm, config.depth_of_cut_cm)
        if seen_configs.setdefault(config.config_id, params) != params:
            raise ManifestError(
                f"{where}: config_id {config.config_id!r} reused "
                "with different cutting parameters"
            )
        valid.append((record_id, rate, label, sig_path, config))

    if config_ids is None:
        config_ids = list(seen_configs)
    for config_id in config_ids:
        if config_id not in seen_configs:
            raise ManifestError(
                f"dataset: config {config_id!r} not in manifest "
                f"(have {sorted(seen_configs)})"
            )
    chosen = [v for v in valid if v[4].config_id in config_ids
              and (record_ids is None or v[0] in record_ids)]
    found = {v[0] for v in chosen}
    for record_id in record_ids or ():
        if record_id not in found:
            raise ManifestError(f"dataset: record {record_id!r} not found")
    if check_rate is not None:
        for record_id, rate, *_ in chosen:
            check_rate(record_id, rate)
    records = tuple(
        TimeSeries(
            samples=_read_signal(sig_path),
            sample_rate_hz=rate,
            config=config,
            label=label,
            record_id=record_id,
        )
        for record_id, rate, label, sig_path, config in chosen
    )
    return LabeledDataset(records=records)


def split_by_config(ds):
    """Partition a dataset by config_id, preserving record order."""
    groups = {}
    for rec in ds.records:
        groups.setdefault(rec.config.config_id, []).append(rec)
    return {cid: LabeledDataset(records=tuple(recs)) for cid, recs in groups.items()}


def _cannot_write(path, exc):
    return OutputError(f"{path}: cannot write ({exc.strerror})")


def atomic_write(path, text):
    """Write text to path through a temporary file beside it.

    The file gets the mode open() would give it. A failed write leaves
    neither file behind and raises OutputError naming path.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise _cannot_write(path, exc)
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def check_writable(path):
    """Raise the OutputError atomic_write(path, ...) would for a missing or
    unwritable directory or a path that is one, by making a temporary file."""
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))).close()
    except OSError as exc:
        raise _cannot_write(path, exc)


def write_corpus(out_dir, ds):
    """Write ds as load_manifest reads it: one `<record_id>.csv` of CRLF-ended
    `repr(float)` lines per record, then manifest.json; returns its path.

    Nothing is written when a record id repeats or is not a plain file-name
    stem (empty, `.`, `..`, or holding a path separator or NUL).
    """
    seen = set()
    for rec in ds.records:
        rid = rec.record_id
        if rid in ("", ".", "..") or set(rid) & {"/", os.sep, os.altsep, "\0"}:
            raise OutputError(f"{out_dir}: record id {rid!r} is not a plain file name")
        if rid in seen:
            raise OutputError(f"{out_dir}: record id {rid!r} names two records")
        seen.add(rid)
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(out_dir, exc)
    entries = []
    for rec in ds.records:
        fname = f"{rec.record_id}.csv"
        atomic_write(Path(out_dir) / fname,
                     "".join(f"{v!r}\r\n" for v in rec.samples.tolist()))
        entries.append({"file": fname, "sample_rate_hz": rec.sample_rate_hz,
                        "overhang_cm": rec.config.overhang_cm, "rpm": rec.config.spindle_rpm,
                        "depth_cm": rec.config.depth_of_cut_cm, "label": rec.label.value,
                        "config_id": rec.config.config_id, "record_id": rec.record_id})
    manifest = Path(out_dir) / "manifest.json"
    atomic_write(manifest, json.dumps(entries, indent=2, sort_keys=True) + "\n")
    return manifest
