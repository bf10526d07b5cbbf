"""Base signal representations: amplitude spectrum, PSD, autocorrelation.

Each transform returns an IndexedSequence: an (xs, ys) pair tagged with
its kind. xs is frequency in Hz for FFT/PSD and lag index for ACF.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import TransformError

DEFAULT_MAX_LAG = 5000
DEFAULT_PSD_SEGMENTS = 8


class Kind(enum.Enum):
    FFT = "fft"
    PSD = "psd"
    ACF = "acf"


@dataclass(frozen=True)
class IndexedSequence:
    xs: np.ndarray
    ys: np.ndarray
    kind: Kind
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "xs", np.array(self.xs, dtype=float))
        object.__setattr__(self, "ys", np.array(self.ys, dtype=float))
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise TransformError("xs/ys must have equal length >= 2")
        if np.any(np.diff(self.xs) <= 0):
            raise TransformError("xs must be strictly increasing")
        self.xs.setflags(write=False)
        self.ys.setflags(write=False)

    def __len__(self):
        return len(self.xs)


def _next_pow2(n):
    return 1 << (int(n) - 1).bit_length()


def amplitude_spectrum(ts):
    """One-sided magnitude spectrum of the mean-removed signal.

    Zero-pads to the next power of two; ys are raw |DFT| magnitudes (the
    padded length is recorded in meta for energy bookkeeping).
    """
    x = ts.samples
    if x.size < 4:
        raise TransformError(f"need at least 4 samples, got {x.size}")
    x = x - x.mean()
    nfft = _next_pow2(x.size)
    ys = np.abs(np.fft.rfft(x, nfft))
    xs = np.fft.rfftfreq(nfft, d=1.0 / ts.sample_rate_hz)
    return IndexedSequence(xs, ys, Kind.FFT, meta={"nfft": nfft})


def spectral_energy(seq):
    """Time-domain energy implied by a one-sided magnitude spectrum."""
    if seq.kind is not Kind.FFT:
        raise TransformError("spectral_energy expects an FFT sequence")
    nfft = seq.meta["nfft"]
    w = np.full(len(seq.ys), 2.0)
    w[0] = 1.0
    if nfft % 2 == 0:
        w[-1] = 1.0  # Nyquist bin is not mirrored
    return float(np.sum(w * seq.ys**2) / nfft)


def power_spectral_density(ts, nperseg=None):
    """Welch PSD: Hann window, 50% overlap, 8 segments by default.

    Bitwise equal to scipy.signal.welch(x, fs, "hann", nperseg,
    nperseg // 2, detrend="constant", scaling="density") under scipy
    1.17.1, by following the operation order of its ShortTimeFFT path;
    numpy.fft keeps scipy out of the import.
    """
    x = ts.samples
    if nperseg is None:
        # segment length giving DEFAULT_PSD_SEGMENTS half-overlapping segments
        nperseg = max(8, 2 * x.size // (DEFAULT_PSD_SEGMENTS + 1))
    if nperseg < 2:
        raise TransformError(f"nperseg must be >= 2, got {nperseg}")
    if x.size < nperseg:
        raise TransformError(
            f"signal of {x.size} samples shorter than one segment ({nperseg})"
        )
    T = 1 / ts.sample_rate_hz
    # periodic Hann, scaled to unit power density; the builtin sum as scipy
    w = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)))[:-1]
    w = w * (1 / np.sqrt(sum(w**2) / T))
    hop = nperseg - nperseg // 2
    n_seg = (x.size - nperseg // 2) // hop
    segs = np.lib.stride_tricks.sliding_window_view(x, nperseg)[: n_seg * hop : hop]
    segs = segs - np.mean(segs, -1, keepdims=True)
    # (frequency, segment) layout: the mean over segments then sums along
    # contiguous rows, which fixes the rounding scipy gets
    spec = np.ascontiguousarray(np.fft.rfft(segs * w, n=nperseg).T)
    psd = spec.real**2 + spec.imag**2
    psd[1 : -1 if nperseg % 2 == 0 else None] *= 2  # one-sided: fold negative bins
    xs = np.fft.rfftfreq(nperseg, T)
    return IndexedSequence(xs, psd.mean(axis=-1), Kind.PSD,
                           meta={"nperseg": int(nperseg)})


def autocorrelation(ts, max_lag=None):
    """Biased, lag-0-normalized ACF of the mean-removed signal.

    Computed via FFT; equal to (1/N) sum_t x[t] x[t+k] divided by the
    lag-0 value, which keeps |ys| <= 1.
    """
    x = ts.samples
    n = x.size
    if max_lag is None:
        max_lag = min(n - 1, DEFAULT_MAX_LAG)
    if not 0 < max_lag < n:
        raise TransformError(f"max_lag {max_lag} out of range (0, {n})")
    # mean removal can leave a constant signal a few ulps off zero, so
    # test the samples themselves
    if x.min() == x.max():
        raise TransformError("constant signal has no defined autocorrelation")
    x = x - x.mean()
    nfft = _next_pow2(2 * n)
    spec = np.fft.rfft(x, nfft)
    r = np.fft.irfft(spec * np.conj(spec), nfft)[: max_lag + 1]
    if r[0] <= 0:
        raise TransformError("constant signal has no defined autocorrelation")
    ys = r / r[0]
    xs = np.arange(max_lag + 1, dtype=float)
    return IndexedSequence(xs, ys, Kind.ACF)
