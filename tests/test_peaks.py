import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatterkit.featurize import PipelineConfig
from chatterkit.peaks import (
    Peak,
    _local_maxima,
    PeakConstraints,
    find_peaks,
    min_peak_height,
)
from chatterkit.transform import IndexedSequence, Kind


def seq_of(ys, kind=Kind.FFT):
    ys = np.asarray(ys, dtype=float)
    return IndexedSequence(np.arange(ys.size, dtype=float), ys, kind)


def greedy_oracle(ys, mph, mpd, n_peaks):
    """Independent scan-based reimplementation of the selection rule."""
    ys = np.asarray(ys, dtype=float)
    candidates = []
    for i in range(1, ys.size - 1):
        if ys[i] > ys[i - 1] and ys[i] > ys[i + 1] and ys[i] >= mph:
            candidates.append(i)
    candidates.sort(key=lambda i: (-ys[i], i))
    accepted = []
    for i in candidates:
        if len(accepted) == n_peaks:
            break
        if all(abs(i - j) >= mpd for j in accepted):
            accepted.append(i)
    return sorted(accepted)


def find_peaks_reference(seq, constraints):
    """find_peaks as it was, filtering and sorting in Python."""
    ys = seq.ys
    if len(ys) < 3:
        return []
    mph = min_peak_height(seq, constraints.alpha)
    candidates = [i for i in _local_maxima(ys) if ys[i] >= mph]
    # highest amplitude first; lower index wins ties
    candidates.sort(key=lambda i: (-ys[i], i))
    accepted = []
    for i in candidates:
        if len(accepted) == constraints.n_peaks:
            break
        if all(abs(i - j) >= constraints.mpd for j in accepted):
            accepted.append(i)
    accepted.sort()
    return [Peak(x=float(seq.xs[i]), y=float(ys[i]), index=int(i)) for i in accepted]


# Few distinct levels make tied amplitudes and plateaus common.
_LEVEL = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.0, -1.0, np.nan]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestMinPeakHeight:
    def test_alpha_zero_is_p5(self):
        ys = np.arange(1.0, 101.0)
        assert min_peak_height(seq_of(ys), 0.0) == pytest.approx(
            np.percentile(ys, 5)
        )

    def test_alpha_one_is_p95(self):
        ys = np.arange(1.0, 101.0)
        assert min_peak_height(seq_of(ys), 1.0) == pytest.approx(
            np.percentile(ys, 95)
        )

    def test_alpha_half_midpoint(self):
        ys = np.arange(1.0, 101.0)
        p5, p95 = np.percentile(ys, [5, 95])
        assert min_peak_height(seq_of(ys), 0.5) == pytest.approx((p5 + p95) / 2)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            min_peak_height(seq_of([1, 2, 3]), 1.5)


class TestKindDefaults:
    def test_fft(self):
        assert PipelineConfig().peak_constraints(Kind.FFT).mpd == 500

    def test_acf(self):
        assert PipelineConfig().peak_constraints(Kind.ACF).mpd == 1000

    def test_psd(self):
        assert PipelineConfig().peak_constraints(Kind.PSD).mpd == 0


class TestFindPeaks:
    def test_single_bump(self):
        ys = np.concatenate([np.arange(10.0), np.arange(9.0)[::-1]])
        peaks = find_peaks(seq_of(ys), PeakConstraints(alpha=0.0, mpd=0, n_peaks=5))
        assert [p.index for p in peaks] == [9]
        assert peaks[0].y == 9.0

    def test_two_points_have_no_peak(self):
        for ys in ([0.0, 1.0], [1.0, 0.0], [2.0, 2.0]):
            assert find_peaks(seq_of(ys), PeakConstraints(alpha=0.0, mpd=0, n_peaks=5)) == []

    def test_three_tones_mpd(self):
        ys = np.zeros(3000)
        for i, h in ((100, 5.0), (400, 8.0), (2000, 3.0)):
            ys[i - 1], ys[i], ys[i + 1] = h / 2, h, h / 2
        peaks = find_peaks(seq_of(ys), PeakConstraints(alpha=0.0, mpd=500, n_peaks=2))
        expected = greedy_oracle(ys, min_peak_height(seq_of(ys), 0.0), 500, 2)
        assert [p.index for p in peaks] == expected
        # highest (400) accepted, 100 suppressed, next highest spaced is 2000
        assert [p.index for p in peaks] == [400, 2000]

    def test_mpd_growth_changes_selection(self):
        rng = np.random.default_rng(10)
        ys = np.abs(rng.normal(size=4000)) + 1.0
        small = find_peaks(seq_of(ys), PeakConstraints(alpha=0.2, mpd=500, n_peaks=5))
        large = find_peaks(seq_of(ys), PeakConstraints(alpha=0.2, mpd=2500, n_peaks=5))
        assert len(large) <= len(small)

    def test_peak_fields_consistent(self):
        rng = np.random.default_rng(11)
        seq = seq_of(rng.uniform(size=500))
        for p in find_peaks(seq, PeakConstraints(alpha=0.3, mpd=20, n_peaks=10)):
            assert p.y == seq.ys[p.index]
            assert p.x == seq.xs[p.index]

    def test_constraints_hold_on_random_sequences(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = int(rng.integers(3, 200))
            ys = rng.uniform(size=n)
            alpha = float(rng.uniform())
            mpd = int(rng.integers(0, 50))
            n_peaks = int(rng.integers(1, 8))
            c = PeakConstraints(alpha=alpha, mpd=mpd, n_peaks=n_peaks)
            seq = seq_of(ys)
            peaks = find_peaks(seq, c)
            mph = min_peak_height(seq, alpha)
            assert len(peaks) <= n_peaks
            idx = [p.index for p in peaks]
            assert idx == sorted(idx)
            for p in peaks:
                assert p.y >= mph
                assert 0 < p.index < n - 1
                assert ys[p.index] > ys[p.index - 1]
                assert ys[p.index] > ys[p.index + 1]
            for a in idx:
                for b in idx:
                    if a != b:
                        assert abs(a - b) >= mpd

    def test_matches_greedy_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(10, 500))
            ys = rng.uniform(size=n)
            alpha = float(rng.uniform())
            mpd = int(rng.integers(0, 60))
            n_peaks = int(rng.integers(1, 10))
            seq = seq_of(ys)
            got = [p.index for p in
                   find_peaks(seq, PeakConstraints(alpha, mpd, n_peaks))]
            want = greedy_oracle(ys, min_peak_height(seq, alpha), mpd, n_peaks)
            assert got == want

    def test_acf_lag0_never_returned(self):
        ys = np.concatenate([[1.0], 0.9 * np.cos(np.arange(1, 300) * 0.2)])
        seq = IndexedSequence(np.arange(300.0), ys, Kind.ACF)
        peaks = find_peaks(seq, PeakConstraints(alpha=0.1, mpd=10, n_peaks=10))
        assert all(p.index != 0 for p in peaks)

    @settings(max_examples=500, deadline=None)
    @given(ys=st.lists(_LEVEL, max_size=60),
           alpha=st.floats(0.0, 1.0),
           mpd=st.one_of(st.integers(0, 5), st.integers(6, 1000)),
           n_peaks=st.integers(1, 40))
    def test_equals_python_reference(self, ys, alpha, mpd, n_peaks):
        ys = np.array(ys, dtype=float)
        if ys.size < 2:
            ys = np.append(ys, [0.0, 1.0])[:2]
        seq = seq_of(ys)
        c = PeakConstraints(alpha=alpha, mpd=mpd, n_peaks=n_peaks)
        got, want = find_peaks(seq, c), find_peaks_reference(seq, c)
        assert got == want
        assert [type(p.index) for p in got] == [int] * len(got)
        # bitwise, so that 0.0 and -0.0 are told apart
        assert [np.float64(p.y).tobytes() for p in got] == [
            np.float64(p.y).tobytes() for p in want]

    def test_amplitude_tie_lower_index_wins(self):
        ys = np.array([0.0, 5.0, 0.0, 5.0, 0.0])
        peaks = find_peaks(seq_of(ys), PeakConstraints(alpha=0.0, mpd=2, n_peaks=1))
        assert [p.index for p in peaks] == [1]


def test_count_monotone_in_alpha_and_mpd():
    rng = np.random.default_rng(15)
    for _ in range(200):
        ys = rng.uniform(size=int(rng.integers(20, 300)))
        seq = seq_of(ys)
        counts_alpha = [
            len(find_peaks(seq, PeakConstraints(a, 5, 50)))
            for a in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a >= b for a, b in zip(counts_alpha, counts_alpha[1:]))
        counts_mpd = [
            len(find_peaks(seq, PeakConstraints(0.1, m, 50)))
            for m in (0, 5, 15, 40)
        ]
        assert all(a >= b for a, b in zip(counts_mpd, counts_mpd[1:]))


@pytest.mark.parametrize("alpha, mpd, n_peaks, message", [
    (1.5, 0, 1, r"^alpha must be in \[0, 1\], got 1.5$"),
    (0.1, -1, 1, "^mpd must be non-negative, got -1$"),
    (0.1, 0, 0, "^n_peaks must be >= 1, got 0$"),
])
def test_peak_constraints_ranges(alpha, mpd, n_peaks, message):
    with pytest.raises(ValueError, match=message):
        PeakConstraints(alpha=alpha, mpd=mpd, n_peaks=n_peaks)
