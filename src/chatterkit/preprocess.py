"""Anti-alias filtering and integer-factor decimation.

Replicates the oversample -> low-pass -> downsample chain used for the
accelerometer recordings (160 kHz capture decimated to a 10 kHz working
rate through a high-order Butterworth low-pass).
"""

import importlib.util
from dataclasses import replace
from functools import cache, lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

import numpy as np

from .errors import FilterDesignError, NumericalInstabilityError

DEFAULT_ORDER = 100
# Anti-alias cutoff sits at 0.9x the target Nyquist by default.
CUTOFF_SAFETY = 0.9
# scipy's _cplxreal: a pole is real, or two poles are a conjugate pair or
# share a real part, within this many times the pole's magnitude.
PAIRING_TOL = 100 * np.finfo(float).eps


def _conjugate_pairs(p):
    """One pole of each conjugate pair (positive imaginary part), then the
    real poles, ordered and averaged as scipy's _cplxreal does."""
    p = p[np.lexsort((abs(p.imag), p.real))]
    real = abs(p.imag) <= PAIRING_TOL * abs(p)
    zp, zn = p[~real & (p.imag > 0)], p[~real & (p.imag < 0)]
    # sort each run of (nearly) equal real parts by imaginary magnitude
    same_real = np.diff(zp.real) <= PAIRING_TOL * abs(zp[:-1])
    edges = np.diff(np.concatenate(([0], same_real, [0])))
    for start, stop in zip(np.nonzero(edges > 0)[0], np.nonzero(edges < 0)[0] + 1):
        for run in (zp[start:stop], zn[start:stop]):
            run[...] = run[np.lexsort([abs(run.imag)])]
    return np.concatenate(((zp + zn.conj()) / 2, p[real].real))


@lru_cache(maxsize=16)
def design_butterworth_lowpass(cutoff_hz, sample_rate_hz, order=DEFAULT_ORDER):
    """Design a Butterworth low-pass as an (order/2, 6) array of second-order sections.

    The arithmetic is that of scipy 1.17.1's `signal.butter(order,
    cutoff_hz, fs=sample_rate_hz, output="sos")` narrowed to an even-order
    low-pass, and so are the bits: the analog poles -exp(i*pi*m/(2N)),
    scaled to the cutoff prewarped at fs = 2 and mapped by the bilinear
    transform; zeros all at -1; conjugate poles paired into sections, the
    pole nearest the unit circle last; the gain in section 0. A gain that
    is not a finite number, or that underflows to 0 (the filter would
    output silence), raises FilterDesignError.

    Cached by its arguments (a design error is raised on every call), so
    the returned array is shared and read-only.
    """
    nyquist = sample_rate_hz / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise FilterDesignError(
            f"cutoff {cutoff_hz} Hz must lie strictly inside (0, {nyquist}) Hz"
        )
    if order < 2 or order % 2 != 0:
        raise FilterDesignError(f"order must be even and >= 2, got {order}")
    wo = float(4.0 * np.tan(np.pi * (cutoff_hz / nyquist) / 2.0))  # prewarped, fs = 2
    p = wo * -np.exp(1j * np.pi * np.arange(1 - order, order, 2, dtype=float) / (2 * order))
    with np.errstate(all="ignore"):  # a gain that is not finite is rejected below
        try:
            gain = wo**order * np.real(1.0 / np.prod(4.0 - p))
        except OverflowError:
            gain = np.inf
    p = _conjugate_pairs((4.0 + p) / (4.0 - p))

    sos = np.zeros((order // 2, 6))
    for k in range(order // 2 - 1, -1, -1):
        i = np.argmin(abs(1 - abs(p)))
        p1, p = p[i], np.delete(p, i)
        if np.isreal(p1):  # pair it with the real pole nearest the unit circle
            reals = np.flatnonzero(np.isreal(p))
            j = reals[np.argmin(abs(1 - abs(p[reals])))]
            p2, p = p[j], np.delete(p, j)
        else:
            p2 = p1.conj()
        a = np.convolve(np.convolve(np.ones(1, complex), [1, -p1]), [1, -p2])
        sos[k] = [1.0, 2.0, 1.0, *a.real]
    with np.errstate(all="ignore"):
        sos[0, :3] *= gain
    if gain == 0:
        raise FilterDesignError(
            f"order {order} with cutoff {cutoff_hz} Hz: the filter gain underflows to 0"
        )
    if not np.all(np.isfinite(sos)):
        raise FilterDesignError(
            f"order {order} with cutoff {cutoff_hz} Hz: the filter gain is not a finite number"
        )
    for k, stage in enumerate(sos):
        poles = np.roots(stage[3:])
        if np.any(np.abs(poles) >= 1.0):
            raise FilterDesignError(f"stage {k} unstable (pole on/outside unit circle)")
    sos.setflags(write=False)
    return sos


@cache
def _sosfilt():
    """scipy's compiled kernel `_sosfilt(sos, x, zi)`: filters each row of x
    in place and leaves each stage's final state in zi (rows, stages, 2).

    It is loaded from its file in scipy/signal, so scipy/signal/__init__.py,
    most of scipy's import time, never runs. If the file or the symbol is
    missing, the same call goes through the public scipy.signal.sosfilt.
    """
    try:
        folder = Path(importlib.util.find_spec("scipy").origin).parent / "signal"
        paths = [folder / f"_sosfilt{suffix}" for suffix in EXTENSION_SUFFIXES]
        path = next((p for p in paths if p.is_file()), paths[0])
        loader = ExtensionFileLoader("scipy.signal._sosfilt", str(path))
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(loader.name, loader))
        loader.exec_module(module)
        return module._sosfilt
    except (ImportError, AttributeError):
        from scipy.signal import sosfilt

        def public_sosfilt(sos, x, zi):
            x[0], zi[0] = sosfilt(sos, x[0], zi=zi[0])

        return public_sosfilt


def apply_filter(sos, x):
    """Run samples through the cascade of sections `sos`, single-pass (causal).

    The output is bitwise that of `scipy.signal.sosfilt(sos, x)`. A
    non-finite output raises NumericalInstabilityError naming the first
    stage whose final state is not finite: a stage's state turns
    non-finite with its output and stays so.
    """
    y = np.array(x, dtype=float, order="C").reshape(1, -1)
    zi = np.zeros((1, len(sos), 2))
    _sosfilt()(sos.copy(), y, zi)  # the kernel needs writable coefficients
    if not np.all(np.isfinite(y)):
        k = int(np.argmin(np.isfinite(zi[0]).all(axis=1)))
        raise NumericalInstabilityError(f"non-finite output at filter stage {k} of {len(sos)}")
    return y[0]


def decimation_filter(record_id, rate_hz, target_rate_hz, cutoff_hz=None,
                      order=DEFAULT_ORDER):
    """(factor, sections) that take a record at rate_hz to target_rate_hz.

    The source rate must be an integer multiple of the target rate, else
    FilterDesignError names the record. A factor of 1 needs no filter
    (sections None). Everything here depends only on the settings and the
    rate, so a caller can check a record before reading its samples.
    """
    factor = rate_hz / target_rate_hz
    if abs(factor - round(factor)) > 1e-9 or factor < 1:
        raise FilterDesignError(
            f"record {record_id!r}: decimation factor {factor} is not a positive "
            f"integer ({rate_hz} Hz -> {target_rate_hz} Hz)"
        )
    factor = int(round(factor))
    if factor == 1:
        return 1, None
    if cutoff_hz is None:
        cutoff_hz = CUTOFF_SAFETY * (target_rate_hz / 2.0)
    return factor, design_butterworth_lowpass(cutoff_hz, rate_hz, order)


def decimate(ts, target_rate_hz, cutoff_hz=None, order=DEFAULT_ORDER):
    """Low-pass then keep every factor-th sample (see `decimation_filter`).

    When target equals source the signal passes through untouched.
    """
    factor, sos = decimation_filter(ts.record_id, ts.sample_rate_hz, target_rate_hz,
                                    cutoff_hz, order)
    if factor == 1:
        return ts
    return replace(ts, samples=apply_filter(sos, ts.samples)[::factor],
                   sample_rate_hz=float(target_rate_hz))
