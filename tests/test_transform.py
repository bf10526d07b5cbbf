import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import signal

from chatterkit.errors import TransformError
from chatterkit.transform import (
    DEFAULT_MAX_LAG,
    DEFAULT_PSD_SEGMENTS,
    IndexedSequence,
    Kind,
    amplitude_spectrum,
    autocorrelation,
    power_spectral_density,
    spectral_energy,
)


def brute_force_acf(x, max_lag):
    """O(N*L) definition: biased, mean-removed, lag-0-normalized."""
    x = x - x.mean()
    n = x.size
    r = np.array([np.sum(x[: n - k] * x[k:]) / n for k in range(max_lag + 1)])
    return r / r[0]


class TestAmplitudeSpectrum:
    def test_zero_signal(self, make_ts):
        spec = amplitude_spectrum(make_ts(np.zeros(1024)))
        assert np.all(spec.ys == 0.0)

    def test_tone_bin_location(self, sine_ts):
        spec = amplitude_spectrum(sine_ts(120, rate=10000, n=10000))
        peak = spec.xs[np.argmax(spec.ys)]
        assert abs(peak - 120) <= 1.0

    def test_parseval(self, make_ts):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.normal(size=rng.integers(100, 3000))
            spec = amplitude_spectrum(make_ts(x))
            e_time = np.sum((x - x.mean()) ** 2)
            assert abs(spectral_energy(spec) - e_time) / e_time < 1e-6

    def test_too_short(self, make_ts):
        with pytest.raises(TransformError):
            amplitude_spectrum(make_ts([1.0, 2.0, 3.0]))

    def test_frequency_range(self, make_ts):
        spec = amplitude_spectrum(make_ts(np.random.default_rng(0).normal(size=1000)))
        assert spec.xs[0] == 0.0
        assert spec.xs[-1] == pytest.approx(5000.0)
        assert spec.kind is Kind.FFT
        assert np.all(spec.ys >= 0)


class TestPSD:
    def test_white_noise_integral_matches_variance(self, make_ts):
        rng = np.random.default_rng(4)
        sigma = 1.7
        x = rng.normal(0, sigma, size=100000)
        psd = power_spectral_density(make_ts(x))
        integral = np.trapezoid(psd.ys, psd.xs)
        assert abs(integral - x.var()) / x.var() < 0.05

    def test_tone_dominant_lobe(self, sine_ts):
        psd = power_spectral_density(sine_ts(800, n=10000))
        assert abs(psd.xs[np.argmax(psd.ys)] - 800) < 10
        assert np.all(psd.ys >= 0)

    def test_zero_signal(self, make_ts):
        psd = power_spectral_density(make_ts(np.zeros(4096)))
        assert np.all(psd.ys == 0.0)

    def test_too_short(self, make_ts):
        with pytest.raises(TransformError):
            power_spectral_density(make_ts(np.ones(32)), nperseg=64)

    @pytest.mark.parametrize("nperseg", [-1, 0, 1])
    def test_segment_below_two_samples(self, make_ts, nperseg):
        with pytest.raises(TransformError, match="nperseg must be >= 2"):
            power_spectral_density(make_ts(np.ones(32)), nperseg=nperseg)


def welch_reference(ts, nperseg=None):
    """power_spectral_density as it was, on scipy.signal.welch."""
    x = ts.samples
    if nperseg is None:
        # segment length giving DEFAULT_PSD_SEGMENTS half-overlapping segments
        nperseg = max(8, 2 * x.size // (DEFAULT_PSD_SEGMENTS + 1))
    if x.size < nperseg:
        raise TransformError(
            f"signal of {x.size} samples shorter than one segment ({nperseg})"
        )
    xs, ys = signal.welch(
        x,
        fs=ts.sample_rate_hz,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend="constant",
        scaling="density",
    )
    return IndexedSequence(xs, ys, Kind.PSD, meta={"nperseg": int(nperseg)})


def _outcome(fn, ts, nperseg):
    try:
        seq = fn(ts, nperseg)
    except TransformError as exc:
        return str(exc)
    return seq.xs.dtype, seq.xs.tobytes(), seq.ys.dtype, seq.ys.tobytes(), seq.meta


@st.composite
def _welch_case(draw):
    """A signal and a segment length: default, odd, the whole signal or
    too long; noise, a tone, a constant or zeros; lengths 8 to 40 000."""
    n = draw(st.one_of(st.integers(8, 80), st.integers(81, 40_000)))
    rate = draw(st.sampled_from([10_000.0, 20_000.0, 160_000.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["noise", "tone", "constant", "zeros"]))
    if shape == "noise":
        x = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 250.0])), size=n)
    elif shape == "tone":
        x = np.sin(2 * np.pi * rng.uniform(10, rate / 2) * np.arange(n) / rate)
    else:
        x = np.full(n, 0.0 if shape == "zeros" else rng.uniform(-50, 50))
    nperseg = draw(st.one_of(
        st.none(), st.just(n), st.integers(2, n).map(lambda m: m | 1),
        st.integers(2, n), st.integers(n + 1, n + 64)))
    return x, rate, nperseg


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_welch_case())
def test_psd_bitwise_equals_scipy_welch(make_ts, case):
    x, rate, nperseg = case
    ts = make_ts(x, rate=rate)
    assert _outcome(power_spectral_density, ts, nperseg) == _outcome(
        welch_reference, ts, nperseg)


@pytest.mark.parametrize("n, nperseg", [(8, 8), (9, 9), (64, 64), (65, 33), (79, 8)])
def test_psd_edge_lengths_equal_scipy_welch(make_ts, n, nperseg):
    ts = make_ts(np.random.default_rng(n).normal(size=n))
    assert _outcome(power_spectral_density, ts, nperseg) == _outcome(
        welch_reference, ts, nperseg)


class TestACF:
    def test_lag0_normalized(self, make_ts):
        x = np.random.default_rng(5).normal(size=5000)
        acf = autocorrelation(make_ts(x), max_lag=100)
        assert acf.ys[0] == pytest.approx(1.0)
        assert np.all(np.abs(acf.ys) <= 1.0 + 1e-12)

    def test_periodic_signal_peak_at_period(self, sine_ts):
        period = 50  # 200 Hz at 10 kHz
        acf = autocorrelation(sine_ts(200, n=10000), max_lag=200)
        k = period
        assert acf.ys[k] > acf.ys[k - 1] - 1e-12 or acf.ys[k] >= 0.9
        assert acf.ys[k] >= 0.9

    def test_white_noise_small_at_positive_lags(self, make_ts):
        x = np.random.default_rng(6).normal(size=10000)
        acf = autocorrelation(make_ts(x), max_lag=1000)
        frac_small = np.mean(np.abs(acf.ys[1:]) < 0.05)
        assert frac_small >= 0.99

    def test_matches_brute_force(self, make_ts):
        rng = np.random.default_rng(7)
        for n in (64, 513, 2048):
            x = rng.normal(size=n)
            max_lag = n // 3
            acf = autocorrelation(make_ts(x), max_lag=max_lag)
            expected = brute_force_acf(x, max_lag)
            assert np.max(np.abs(acf.ys - expected)) < 1e-9

    def test_max_lag_out_of_range(self, make_ts):
        ts = make_ts(np.random.default_rng(8).normal(size=100))
        with pytest.raises(TransformError):
            autocorrelation(ts, max_lag=100)
        with pytest.raises(TransformError):
            autocorrelation(ts, max_lag=0)

    def test_constant_signal_rejected(self, make_ts):
        with pytest.raises(TransformError):
            autocorrelation(make_ts(np.ones(100)), max_lag=10)


@st.composite
def _acf_case(draw):
    """A signal of 2 to 2000 samples and any valid max_lag (None: the default)."""
    n = draw(st.integers(2, 2000))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if n <= 50 and draw(st.booleans()):
        x = np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)), float)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=n) + draw(st.sampled_from([0.0, 100.0]))
    max_lag = draw(st.one_of(st.none(), st.integers(1, n - 1)))
    return scale * x, max_lag


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_acf_case())
def test_acf_equals_brute_force(make_ts, case):
    x, max_lag = case
    if np.all(x == x[0]):
        with pytest.raises(TransformError, match="constant signal"):
            autocorrelation(make_ts(x), max_lag=max_lag)
        return
    acf = autocorrelation(make_ts(x), max_lag=max_lag)
    lags = acf.xs.size - 1
    assert lags == (min(x.size - 1, DEFAULT_MAX_LAG) if max_lag is None else max_lag)
    assert np.array_equal(acf.xs, np.arange(lags + 1.0))
    assert np.max(np.abs(acf.ys - brute_force_acf(x, lags))) < 1e-9


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 2000), st.floats(-1e6, 1e6), st.data())
def test_acf_rejects_every_constant_signal(make_ts, n, value, data):
    max_lag = data.draw(st.integers(1, n - 1))
    with pytest.raises(TransformError, match="constant signal"):
        autocorrelation(make_ts(np.full(n, value)), max_lag=max_lag)


def test_transforms_deterministic(make_ts):
    x = np.random.default_rng(9).normal(size=4096)
    ts = make_ts(x)
    for fn in (amplitude_spectrum, power_spectral_density, autocorrelation):
        a, b = fn(ts), fn(ts)
        assert np.array_equal(a.ys, b.ys)
        assert np.array_equal(a.xs, b.xs)


def test_indexed_sequence_invariants():
    with pytest.raises(TransformError, match="^xs/ys must have equal length >= 2$"):
        IndexedSequence([0.0, 1.0, 2.0], [1.0, 2.0], Kind.FFT)
    with pytest.raises(TransformError, match="^xs must be strictly increasing$"):
        IndexedSequence([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], Kind.FFT)


def test_spectral_energy_needs_an_fft_sequence():
    with pytest.raises(TransformError, match="^spectral_energy expects an FFT sequence$"):
        spectral_energy(IndexedSequence([0.0, 1.0], [1.0, 1.0], Kind.PSD))


def test_acf_with_underflowing_lag0_rejected(make_ts):
    # not constant, but every product underflows, so the lag-0 value is 0
    x = np.tile([0.0, 1e-200], 50)
    with pytest.raises(TransformError,
                       match="^constant signal has no defined autocorrelation$"):
        autocorrelation(make_ts(x))
