import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

from chatterkit.errors import FilterDesignError, NumericalInstabilityError
from chatterkit.preprocess import apply_filter, decimate, design_butterworth_lowpass
from chatterkit.transform import amplitude_spectrum

RATE = 160000.0


def steady_amplitude(samples, rate, order):
    """RMS-based amplitude after skipping the documented transient."""
    skip = int(10 * (order / 2) / rate * rate)
    tail = samples[skip:]
    return np.sqrt(2.0) * np.sqrt(np.mean(tail**2))


def sine(freq, rate=RATE, seconds=0.2):
    t = np.arange(int(rate * seconds)) / rate
    return np.sin(2 * np.pi * freq * t)


def test_order_100_design_has_50_stable_stages():
    sos = design_butterworth_lowpass(5000, RATE, 100)
    assert sos.shape == (50, 6)
    for stage in sos:
        assert np.all(np.abs(np.roots(stage[3:])) < 1.0)


def test_minus_3db_at_cutoff():
    from scipy.signal import sosfreqz

    sos = design_butterworth_lowpass(2000, 16000, 2)
    _, h = sosfreqz(sos, worN=[2000.0], fs=16000)
    assert abs(20 * np.log10(abs(h[0])) + 3.0103) < 0.1


def test_dc_gain_unity():
    from scipy.signal import sosfreqz

    sos = design_butterworth_lowpass(5000, RATE, 100)
    _, h = sosfreqz(sos, worN=[1e-6], fs=RATE)
    assert abs(abs(h[0]) - 1.0) < 1e-6


def test_cutoff_at_nyquist_rejected():
    with pytest.raises(FilterDesignError):
        design_butterworth_lowpass(RATE / 2, RATE, 100)


def test_odd_order_rejected():
    with pytest.raises(FilterDesignError):
        design_butterworth_lowpass(5000, RATE, 99)


def test_design_is_cached_and_errors_are_not():
    sos = design_butterworth_lowpass(4321.0, RATE, 100)
    assert design_butterworth_lowpass(4321.0, RATE, 100) is sos
    assert not sos.flags.writeable
    with pytest.raises(ValueError):
        sos[0, 0] = 0.0
    fresh = design_butterworth_lowpass.__wrapped__(4321.0, RATE, 100)
    assert fresh.tobytes() == sos.tobytes()
    for _ in range(2):
        with pytest.raises(FilterDesignError, match="strictly inside"):
            design_butterworth_lowpass(RATE, RATE, 100)


def test_zero_signal_stays_zero():
    out = apply_filter(design_butterworth_lowpass(5000, RATE, 100), np.zeros(4096))
    assert np.all(out == 0.0)
    assert out.size == 4096


def test_passband_tone_preserved():
    out = apply_filter(design_butterworth_lowpass(5000, RATE, 100), sine(100))
    ratio = steady_amplitude(out, RATE, 100)
    assert 0.99 <= ratio <= 1.01


def test_stopband_tone_attenuated():
    out = apply_filter(design_butterworth_lowpass(5000, RATE, 100), sine(12000))
    assert steady_amplitude(out, RATE, 100) <= 0.01


def test_linearity():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=2048), rng.normal(size=2048)
    a, b = 2.5, -1.3
    sos = design_butterworth_lowpass(5000, RATE, 8)
    fx, fy, fxy = (apply_filter(sos, v) for v in (x, y, a * x + b * y))
    scale = np.max(np.abs(fxy)) or 1.0
    assert np.max(np.abs(fxy - (a * fx + b * fy))) / scale < 1e-9


def test_large_amplitude_stays_finite():
    rng = np.random.default_rng(1)
    out = apply_filter(design_butterworth_lowpass(4500, RATE, 100),
                       1e3 * rng.normal(size=8192))
    assert np.all(np.isfinite(out))


def test_decimate_160k_to_10k(make_ts):
    ts = make_ts(np.random.default_rng(2).normal(size=160000), rate=160000)
    out = decimate(ts, 10000)
    assert out.sample_rate_hz == 10000
    assert out.samples.size == 10000


def test_decimate_identity(make_ts):
    ts = make_ts(sine(100, rate=10000, seconds=0.1), rate=10000)
    out = decimate(ts, 10000)
    assert out is ts


def test_decimate_non_integer_factor(make_ts):
    ts = make_ts(np.ones(100), rate=10000)
    with pytest.raises(FilterDesignError):
        decimate(ts, 3000)


def test_decimated_tone_recovered(make_ts):
    ts = make_ts(sine(1000, rate=160000, seconds=1.0), rate=160000)
    out = decimate(ts, 10000)
    spec = amplitude_spectrum(out)
    peak_freq = spec.xs[np.argmax(spec.ys)]
    bin_width = spec.xs[1] - spec.xs[0]
    assert abs(peak_freq - 1000) <= bin_width


def test_inband_power_preserved(make_ts):
    # band-limited input: tones well inside the post-decimation band
    t = np.arange(160000) / 160000.0
    x = np.sin(2 * np.pi * 300 * t) + 0.5 * np.sin(2 * np.pi * 1200 * t)
    out = decimate(make_ts(x, rate=160000), 10000)
    # compare steady-state power, skipping the filter transient
    skip = 2000
    p_in = np.mean(x[skip * 16 :] ** 2)
    p_out = np.mean(out.samples[skip:] ** 2)
    assert abs(p_out - p_in) / p_in < 0.02


def _cascade_stage_by_stage(sos, x):
    """The stage-by-stage loop one sosfilt call replaced: the reference.

    Returns the output and the first stage whose output is not finite
    (None when every stage's is).
    """
    x, bad = np.array(x, dtype=float), None
    for k in range(len(sos)):
        x = signal.sosfilt(sos[k : k + 1].copy(), x)
        if bad is None and not np.all(np.isfinite(x)):
            bad = k
    return x, bad


@pytest.mark.parametrize("rate,cutoff", [(160000.0, 4500.0), (160000.0, 60000.0),
                                         (20000.0, 4500.0), (10000.0, 100.0)])
def test_one_pass_filter_is_the_cascade_bit_for_bit(rate, cutoff):
    rng = np.random.default_rng(int(cutoff))
    x = 1e3 * rng.normal(size=3000) + np.repeat([0.0, 5.0], 1500)  # noise and a step
    for order in range(2, 101, 2):
        sos = design_butterworth_lowpass(cutoff, rate, order)
        out = apply_filter(sos, x)
        assert np.all(np.isfinite(out)), order
        want, _ = _cascade_stage_by_stage(sos, x)
        assert out.view(np.int64).tolist() == want.view(np.int64).tolist(), order


@pytest.mark.parametrize("bad", [0, 2, 4])
def test_blow_up_names_the_stage(bad):
    sos = np.tile([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], (5, 1))  # five identity stages
    sos[bad, 4] = -10.0  # y[n] = x[n] + 10 y[n-1]: overflows within 400 samples
    with pytest.raises(NumericalInstabilityError, match=f"stage {bad} of 5$"):
        apply_filter(sos, np.ones(1000))


_COEF = st.floats(-10.0, 10.0)
# magnitudes up to 1e300, so that both finite and overflowing outputs occur
_SAMPLE = st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(0, 300))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COEF, _COEF, _COEF, _COEF, _COEF), min_size=1, max_size=7),
       st.lists(_SAMPLE, min_size=20, max_size=200))
def test_blow_up_stage_is_the_first_non_finite_state(stages, x):
    sos = np.array([[b0, b1, b2, 1.0, a1, a2] for b0, b1, b2, a1, a2 in stages])
    x = np.array(x)
    want, replay_stage = _cascade_stage_by_stage(sos, x)
    if np.all(np.isfinite(want)):
        out = apply_filter(sos, x)
        assert out.view(np.int64).tolist() == want.view(np.int64).tolist()
        return
    with pytest.raises(NumericalInstabilityError, match=f"of {len(sos)}$") as err:
        apply_filter(sos, x)
    k = int(str(err.value).split("stage ")[1].split(" of")[0])
    _, zf = signal.sosfilt(sos, x, zi=np.zeros((len(sos), 2)))
    finite = np.isfinite(zf).all(axis=1)
    assert not finite[k] and finite[:k].all()
    assert k <= replay_stage


def _butter_outcome(order, cutoff, rate):
    """signal.butter's sections as bytes, or the kind of FilterDesignError
    the package raises in their place: "gain" where scipy overflows or
    returns a non-finite array, "zero" where its gain underflows (section
    0's numerator is all zeros), "unstable" for a pole on or outside the
    unit circle."""
    with np.errstate(all="ignore"):
        try:
            sos = signal.butter(order, cutoff, fs=rate, output="sos")
        except OverflowError:
            return "gain"
    if not np.all(np.isfinite(sos)):
        return "gain"
    if not np.any(sos[0, :3]):
        return "zero"
    if any(np.any(np.abs(np.roots(stage[3:])) >= 1.0) for stage in sos):
        return "unstable"
    return sos.tobytes()


def _design_outcome(order, cutoff, rate):
    try:
        return design_butterworth_lowpass.__wrapped__(cutoff, rate, order).tobytes()
    except FilterDesignError as exc:
        if "underflows" in str(exc):
            return "zero"
        return "gain" if "gain" in str(exc) else "unstable"


_RATES = (1000.0, 10000.0, 20000.0, 44100.0, 48000.0, 96000.0, 160000.0, 192000.0)


def test_design_is_scipy_butter_bit_for_bit_on_a_grid():
    cases = [(order, frac * rate / 2, rate)
             for order in (2, 4, 6, 8, 10, 16, 20, 32, 50, 64, 100, 120, 200, 256, 300, 400)
             for rate in _RATES for frac in (1e-15, 1e-9, 1e-5, 1e-3, 0.05, 0.45, 0.9, 0.999)]
    outcomes = [_design_outcome(*case) for case in cases]
    assert outcomes == [_butter_outcome(*case) for case in cases]
    kinds = {o if isinstance(o, str) else "equal" for o in outcomes}
    assert kinds == {"equal", "gain", "zero", "unstable"}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200), st.floats(1000.0, 192000.0),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_design_is_scipy_butter_bit_for_bit(half_order, rate, frac):
    order, cutoff = 2 * half_order, frac * rate / 2
    if 0 < cutoff < rate / 2:
        assert _design_outcome(order, cutoff, rate) == _butter_outcome(order, cutoff, rate)


@pytest.mark.parametrize("order,cutoff,rate", [(520, 4999.0, 20000.0),
                                               (700, 4500.0, 160000.0),
                                               (2000, 18000.0, 160000.0)])
def test_gain_that_is_not_finite_is_a_design_error(order, cutoff, rate):
    assert _butter_outcome(order, cutoff, rate) == "gain"
    with pytest.raises(FilterDesignError,
                       match=f"^order {order} with cutoff {cutoff} Hz: the filter gain"):
        design_butterworth_lowpass(cutoff, rate, order)


@pytest.mark.parametrize("order,cutoff,rate", [(302, 4500.0, 160000.0),
                                               (480, 4500.0, 160000.0),
                                               (492, 4500.0, 160000.0),
                                               (200, 100.0, 20000.0)])
def test_gain_that_underflows_is_a_design_error(order, cutoff, rate):
    assert _butter_outcome(order, cutoff, rate) == "zero"
    with pytest.raises(FilterDesignError,
                       match=f"^order {order} with cutoff {cutoff} Hz: the filter gain "
                             "underflows to 0$"):
        design_butterworth_lowpass(cutoff, rate, order)
    # the orders around the 160 kHz band: a working filter, a gain that is not finite
    assert isinstance(_design_outcome(300, 4500.0, 160000.0), bytes)
    assert _design_outcome(494, 4500.0, 160000.0) == "gain"


@pytest.mark.parametrize("order", [2, 8, 100])
@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 320000), seed=st.integers(0, 2**32 - 1),
       frac=st.floats(0.01, 0.95))
@example(n=1, seed=0, frac=0.5)
@example(n=320000, seed=0, frac=0.1125)
def test_filter_is_scipy_sosfilt_bit_for_bit(order, n, seed, frac):
    sos = design_butterworth_lowpass(frac * RATE / 2, RATE, order)
    x = 1e3 * np.random.default_rng(seed).normal(size=n)
    want = signal.sosfilt(sos.copy(), x)
    assert apply_filter(sos, x).view(np.int64).tolist() == want.view(np.int64).tolist()


def test_kernel_falls_back_to_public_sosfilt(monkeypatch):
    from chatterkit import preprocess

    assert preprocess._sosfilt().__module__ == "scipy.signal._sosfilt"
    monkeypatch.setattr(preprocess, "EXTENSION_SUFFIXES", [".missing.so"])
    fallback = preprocess._sosfilt.__wrapped__()
    assert fallback.__module__ == "chatterkit.preprocess"
    monkeypatch.setattr(preprocess, "_sosfilt", lambda: fallback)
    rng = np.random.default_rng(3)
    for order, n in ((2, 1), (8, 1000), (100, 320000)):
        sos = design_butterworth_lowpass(4500.0, RATE, order)
        x = rng.normal(size=n)
        want = signal.sosfilt(sos.copy(), x)
        assert apply_filter(sos, x).view(np.int64).tolist() == want.view(np.int64).tolist()
    sos = np.tile([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], (5, 1))
    sos[2, 4] = -10.0
    with pytest.raises(NumericalInstabilityError, match="stage 2 of 5$"):
        apply_filter(sos, np.ones(1000))
