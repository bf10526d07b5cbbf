"""Constrained peak picking: minimum peak height and minimum peak distance.

The height threshold is percentile-based:

    MPH = p5 + alpha * (p95 - p5),  alpha in [0, 1]

with p5/p95 the 5th/95th percentiles of the sequence amplitudes
(linear interpolation between closest ranks). Candidate peaks are strict
interior local maxima; selection is greedy by descending amplitude with
suppression of candidates closer than the minimum peak distance (mpd),
stopping once n_peaks are accepted; the accepted peaks are then ordered
by ascending x. Small mpd therefore concentrates the picked points near
the maximum amplitude, large mpd forces them to spread out.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PeakConstraints:
    alpha: float
    mpd: int
    n_peaks: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.mpd < 0:
            raise ValueError(f"mpd must be non-negative, got {self.mpd}")
        if self.n_peaks < 1:
            raise ValueError(f"n_peaks must be >= 1, got {self.n_peaks}")


@dataclass(frozen=True)
class Peak:
    x: float
    y: float
    index: int


def min_peak_height(seq, alpha):
    """Percentile-anchored amplitude threshold."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    p5, p95 = np.percentile(seq.ys, [5.0, 95.0], method="linear")
    return float(p5 + alpha * (p95 - p5))


def _local_maxima(ys):
    """Indices of strict interior local maxima."""
    interior = (ys[1:-1] > ys[:-2]) & (ys[1:-1] > ys[2:])
    return np.nonzero(interior)[0] + 1


def find_peaks(seq, constraints):
    """Greedy amplitude-priority peak selection under MPH/MPD limits.

    May return fewer than n_peaks; callers decide whether that is an
    error. Ties in amplitude go to the lower index.
    """
    ys = seq.ys
    mph = min_peak_height(seq, constraints.alpha)
    idx = _local_maxima(ys)
    idx = idx[ys[idx] >= mph]
    # highest amplitude first; lower index wins ties
    candidates = idx[np.lexsort((idx, -ys[idx]))].tolist()
    accepted = []
    for i in candidates:
        if len(accepted) == constraints.n_peaks:
            break
        if all(abs(i - j) >= constraints.mpd for j in accepted):
            accepted.append(i)
    accepted.sort()
    return [Peak(x=float(seq.xs[i]), y=float(ys[i]), index=i) for i in accepted]
