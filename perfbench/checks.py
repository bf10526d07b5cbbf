"""Output checks: against the generator's truth or properties the method must have.

Every check is one operation. It raises CheckFailed with a message when
the output is wrong; a Tally counts attempted and failed operations.
None of these checks compares against a stored copy of a previous
output, except `identical`, which compares two invocations of one run.
"""

import json
import math

import numpy as np

DECIMATION_FACTOR = 16
# Relative slack on planted tone heights: the anti-alias filter's start-up
# transient and the leakage of the other tone and of the negative-frequency
# image stay well under 2% for the tones the corpora plant.
HEIGHT_REL_TOL = 0.02
# Noise slack on a spectrum bin, in units of sigma * sqrt(N): a bin of white
# noise has Rayleigh magnitude with scale sigma * sqrt(N / 2), which exceeds
# this with probability exp(-72).
HEIGHT_NOISE_SIGMAS = 6.0
ENERGY_REL_TOL = 1e-9
ACF_ABS_TOL = 1e-9


class CheckFailed(Exception):
    pass


class Tally:
    """Counts checks attempted and failed, keeping the first failure messages."""

    MAX_MESSAGES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run(self, name, check, *args):
        self.attempted += 1
        try:
            check(*args)
        except CheckFailed as exc:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(f"{name}: {exc}")

    def add(self, other):
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.messages.extend(other["messages"][: self.MAX_MESSAGES - len(self.messages)])

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "messages": self.messages}


def _fail(msg):
    raise CheckFailed(msg)


def parsed_equals_generated(parsed, generated):
    parsed = np.asarray(parsed)
    if parsed.shape != generated.shape:
        _fail(f"parsed {parsed.shape} samples, generated {generated.shape}")
    if not np.array_equal(parsed, generated):
        bad = int(np.count_nonzero(parsed != generated))
        _fail(f"{bad} parsed samples differ from the generated ones")


def decimated_length(n_in, n_out, rate_out, target_rate_hz):
    if n_in % DECIMATION_FACTOR or n_out != n_in // DECIMATION_FACTOR:
        _fail(f"{n_in} samples decimated to {n_out}, expected N/{DECIMATION_FACTOR}")
    if rate_out != target_rate_hz:
        _fail(f"decimated rate {rate_out} Hz, expected {target_rate_hz} Hz")


def scalloping_floor(n, nfft):
    """Smallest |DFT| of a unit-sum tone at its nearest zero-padded bin.

    A tone of N samples has |sum exp(i theta n)| = |sin(N theta/2) / sin(theta/2)|
    at offset theta from a bin; the nearest of nfft bins is at most pi/nfft
    away, where this Dirichlet kernel is still decreasing.
    """
    half = math.pi / (2.0 * nfft)
    return math.sin(n * half) / math.sin(half)


def tone_peak(xs, ys, nfft, n, tone_hz, amp, noise_std, lo_hz=0.0):
    """The largest bin at or above lo_hz sits within one bin of tone_hz,
    with height between the scalloping floor and the full A*N/2."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    bin_hz = xs[1] - xs[0]
    start = int(np.searchsorted(xs, lo_hz))
    k = start + int(np.argmax(ys[start:]))
    if abs(xs[k] - tone_hz) > bin_hz:
        _fail(f"peak at {xs[k]:.3f} Hz, planted {tone_hz} Hz (bin {bin_hz:.3f} Hz)")
    slack = HEIGHT_NOISE_SIGMAS * noise_std * math.sqrt(n)
    lo = 0.5 * amp * scalloping_floor(n, nfft) * (1.0 - HEIGHT_REL_TOL) - slack
    hi = 0.5 * amp * n * (1.0 + HEIGHT_REL_TOL) + slack
    if not lo <= ys[k] <= hi:
        _fail(f"peak height {ys[k]:.6g} outside [{lo:.6g}, {hi:.6g}] for amplitude {amp}")


def spectral_energy(energy, samples):
    x = np.asarray(samples, dtype=float)
    x = x - x.mean()
    expected = float(np.dot(x, x))
    if not abs(energy - expected) <= ENERGY_REL_TOL * expected:
        _fail(f"spectral energy {energy!r}, sum of squares {expected!r}")


def acf_lags(lags):
    """The lags the ACF check visits for a sequence of max_lag + 1 values."""
    return sorted({1, 2, 37, lags // 2, lags})


def acf_brute_force(ys, samples):
    ys = np.asarray(ys)
    x = np.asarray(samples, dtype=float)
    x = x - x.mean()
    r0 = float(np.dot(x, x))
    for k in acf_lags(len(ys) - 1):
        expected = float(np.dot(x[: x.size - k], x[k:])) / r0
        if not abs(ys[k] - expected) <= ACF_ABS_TOL:
            _fail(f"ACF at lag {k} is {ys[k]!r}, definition gives {expected!r}")


def min_peak_height(ys, alpha):
    p5, p95 = np.percentile(ys, [5.0, 95.0])
    return float(p5 + alpha * (p95 - p5))


def peaks_count(peaks, n_peaks):
    if len(peaks) > n_peaks:
        _fail(f"{len(peaks)} peaks, at most {n_peaks} asked for")


def peaks_sorted(peaks):
    xs = [p[0] for p in peaks]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        _fail(f"peak x not strictly increasing: {xs}")


def peaks_distance(peaks, mpd):
    idx = sorted(p[2] for p in peaks)
    gaps = [b - a for a, b in zip(idx, idx[1:])]
    if gaps and min(gaps) < mpd:
        _fail(f"peaks {min(gaps)} samples apart, MPD is {mpd}")


def peaks_height(peaks, xs, ys, alpha):
    """Each peak is a point of the sequence and lies at or above MPH."""
    mph = min_peak_height(ys, alpha)
    for x, y, i in peaks:
        if not 0 <= i < len(ys) or x != xs[i] or y != ys[i]:
            _fail(f"peak ({x!r}, {y!r}) is not point {i} of the sequence")
        if y < mph:
            _fail(f"peak height {y!r} below MPH {mph!r}")


def exit_code(code):
    if code != 0:
        _fail(f"exit code {code}")


def load_report(raw):
    try:
        rows = json.loads(raw)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        _fail(f"unreadable report: {exc}")
    if not isinstance(rows, list) or len(rows) != 1 or not isinstance(rows[0], dict):
        _fail("report must hold exactly one result row")
    return rows[0]


ACCURACY_KEYS = ("mean_train", "std_train", "mean_test", "std_test",
                 "train_accuracy", "test_accuracy")


def accuracies_in_range(raw):
    row = load_report(raw)
    present = [k for k in ACCURACY_KEYS if k in row]
    if not present:
        _fail("report has no accuracy")
    for key in present:
        val = row[key]
        if not isinstance(val, (int, float)) or not 0.0 <= val <= 1.0:
            _fail(f"{key} = {val!r} outside [0, 1]")


def report_matches_request(raw, classifier, rfe, n_rep=None):
    row = load_report(raw)
    if row.get("classifier") != classifier or row.get("rfe") is not rfe:
        _fail(f"report is for {row.get('classifier')!r} rfe={row.get('rfe')!r}, "
              f"asked for {classifier!r} rfe={rfe!r}")
    if n_rep is not None and row.get("n_rep") != n_rep:
        _fail(f"n_rep = {row.get('n_rep')!r}, asked for {n_rep}")


def accuracy_at_least(raw, key, floor):
    val = load_report(raw).get(key)
    if not isinstance(val, (int, float)) or not val >= floor:
        _fail(f"{key} = {val!r}, floor {floor:.4f}")


def identical(raw, reference):
    if raw != reference:
        _fail("report differs from the first invocation's")
