"""Peak-coordinate feature vectors and labeled feature matrices.

A record's features are the (x, y) coordinates of the first n_peaks
peaks of its amplitude spectrum, PSD and ACF, concatenated in that
order: 6 * n_peaks values total (30 for five peaks, 12 for two).
"""

from dataclasses import dataclass

import numpy as np

from . import peaks as pk
from . import preprocess
from . import transform as tf
from .dataset import to_binary
from .errors import ConfigError, EvaluationError, PeakShortfall


def feature_names(n_peaks):
    """Canonical column names: fft_p1_x, fft_p1_y, ..., acf_pK_y."""
    names = []
    for kind in (tf.Kind.FFT, tf.Kind.PSD, tf.Kind.ACF):
        for p in range(1, n_peaks + 1):
            names.append(f"{kind.value}_p{p}_x")
            names.append(f"{kind.value}_p{p}_y")
    return names


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting between a raw record and its feature vector.

    Each field is the CLI flag of the same name, defaults included.
    cutoff_hz None means 0.9x the target Nyquist. A value out of its
    range raises ConfigError.
    """

    target_rate_hz: float = 10000.0
    cutoff_hz: float = None
    filter_order: int = preprocess.DEFAULT_ORDER
    n_peaks: int = 2
    alpha: float = 0.1
    mpd_fft: int = 500
    mpd_acf: int = 1000
    mpd_psd: int = 0

    def __post_init__(self):
        for name, ok, rule in (
            ("target_rate_hz", self.target_rate_hz > 0, "> 0"),
            ("alpha", 0.0 <= self.alpha <= 1.0, "in [0, 1]"),
            ("n_peaks", self.n_peaks >= 1, ">= 1"),
            ("mpd_fft", self.mpd_fft >= 0, ">= 0"),
            ("mpd_acf", self.mpd_acf >= 0, ">= 0"),
            ("mpd_psd", self.mpd_psd >= 0, ">= 0"),
            ("cutoff_hz", self.cutoff_hz is None or 0 < self.cutoff_hz < self.target_rate_hz / 2,
             f"None or in (0, {self.target_rate_hz / 2}), below the working Nyquist"),
            ("filter_order", self.filter_order >= 2 and self.filter_order % 2 == 0,
             "even and >= 2"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    def peak_constraints(self, kind):
        mpd = {tf.Kind.FFT: self.mpd_fft, tf.Kind.ACF: self.mpd_acf,
               tf.Kind.PSD: self.mpd_psd}[kind]
        return pk.PeakConstraints(alpha=self.alpha, mpd=mpd, n_peaks=self.n_peaks)

    def check_rate(self, record_id, rate_hz):
        """Raise the FilterDesignError that to_working_rate would raise for
        a record at rate_hz, without its samples."""
        preprocess.decimation_filter(record_id, rate_hz, self.target_rate_hz,
                                     self.cutoff_hz, self.filter_order)

    def to_working_rate(self, ts):
        """Pass a record at the working rate through; decimate one captured above it.

        A record below the working rate raises FilterDesignError.
        """
        if ts.sample_rate_hz == self.target_rate_hz:
            return ts
        return preprocess.decimate(
            ts, self.target_rate_hz, cutoff_hz=self.cutoff_hz, order=self.filter_order
        )


@dataclass(frozen=True)
class FeatureMatrix:
    X: np.ndarray  # (n_rows, 6*n_peaks)
    y: np.ndarray  # binary labels, 0 or 1
    feature_names: tuple
    config_ids: tuple = ()
    excluded: tuple = ()  # (record_id, reason) pairs dropped during assembly

    def __post_init__(self):
        object.__setattr__(self, "X", np.array(self.X, dtype=float))
        object.__setattr__(self, "y", np.array(self.y, dtype=int))
        if self.X.ndim != 2 or self.X.shape[0] != self.y.size:
            raise EvaluationError("X/y shape mismatch")
        if len(self.feature_names) != self.X.shape[1]:
            raise EvaluationError("feature_names length != column count")
        if not np.isin(self.y, (0, 1)).all():
            raise EvaluationError(
                f"labels must be 0 or 1, got {np.unique(self.y).tolist()}")
        self.X.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def n_rows(self):
        return self.X.shape[0]

    @property
    def n_features(self):
        return self.X.shape[1]


def extract_features(ts, cfg=PipelineConfig()):
    """Transform one record at the working rate into its peak-coordinate vector.

    Returns the 6 * cfg.n_peaks coordinates as a float array. Raises
    PeakShortfall if any of the three transforms yields fewer than
    cfg.n_peaks admissible peaks; coordinates are never padded.
    """
    sequences = (
        tf.amplitude_spectrum(ts),
        tf.power_spectral_density(ts),
        tf.autocorrelation(ts),
    )
    values = []
    for seq in sequences:
        found = pk.find_peaks(seq, cfg.peak_constraints(seq.kind))
        if len(found) < cfg.n_peaks:
            raise PeakShortfall(seq.kind.value, len(found), cfg.n_peaks)
        for p in found[: cfg.n_peaks]:
            values.extend((p.x, p.y))
    return np.array(values)


def build_matrix(ds, cfg=PipelineConfig()):
    """Feature matrix over the learnable records of a dataset.

    Each record is first brought to the working rate
    (PipelineConfig.to_working_rate). Rows hitting a peak shortfall are
    dropped and reported in FeatureMatrix.excluded rather than padded.
    """
    learnable = ds.learnable
    if not learnable:
        raise EvaluationError("no learnable records")
    rows, labels, config_ids, excluded = [], [], [], []
    for rec in learnable:
        try:
            rows.append(extract_features(cfg.to_working_rate(rec), cfg))
        except PeakShortfall as exc:
            excluded.append((rec.record_id, str(exc)))
            continue
        labels.append(to_binary(rec.label))
        config_ids.append(rec.config.config_id)
    if not rows:
        raise EvaluationError("no usable rows after exclusions")
    return FeatureMatrix(
        X=np.vstack(rows),
        y=np.array(labels),
        feature_names=tuple(feature_names(cfg.n_peaks)),
        config_ids=tuple(config_ids),
        excluded=tuple(excluded),
    )


@dataclass(frozen=True)
class Scaler:
    mean: np.ndarray
    std: np.ndarray  # constant columns carry std 1 so they scale to zero

    def transform(self, X):
        return (np.asarray(X, dtype=float) - self.mean) / self.std

    def to_dict(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(mean=np.array(d["mean"]), std=np.array(d["std"]))


def standardize(X):
    """Fit a per-column scaler on training rows only."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return Scaler(mean=mean, std=std)
