"""Anti-alias filtering and integer-factor decimation.

Replicates the oversample -> low-pass -> downsample chain used for the
accelerometer recordings (160 kHz capture decimated to a 10 kHz working
rate through a high-order Butterworth low-pass).
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np

from .errors import FilterDesignError, NumericalInstabilityError

DEFAULT_ORDER = 100
# Anti-alias cutoff sits at 0.9x the target Nyquist by default.
CUTOFF_SAFETY = 0.9


@lru_cache(maxsize=16)
def design_butterworth_lowpass(cutoff_hz, sample_rate_hz, order=DEFAULT_ORDER):
    """Design a Butterworth low-pass as an (order/2, 6) array of second-order sections.

    Cached by its arguments (a design error is raised on every call), so
    the returned array is shared and read-only. scipy.signal is imported
    here and in apply_filter only: it is most of the package's import
    time, and a record already at the working rate never needs it.
    """
    from scipy import signal

    nyquist = sample_rate_hz / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise FilterDesignError(
            f"cutoff {cutoff_hz} Hz must lie strictly inside (0, {nyquist}) Hz"
        )
    if order < 2 or order % 2 != 0:
        raise FilterDesignError(f"order must be even and >= 2, got {order}")
    sos = signal.butter(order, cutoff_hz, btype="low", fs=sample_rate_hz, output="sos")
    for k, stage in enumerate(sos):
        poles = np.roots(stage[3:])
        if np.any(np.abs(poles) >= 1.0):
            raise FilterDesignError(f"stage {k} unstable (pole on/outside unit circle)")
    sos.setflags(write=False)
    return sos


def apply_filter(sos, x):
    """Run samples through the cascade of sections `sos`, single-pass (causal).

    A non-finite output raises NumericalInstabilityError naming the first
    stage whose final state is not finite: a stage's state turns
    non-finite with its output and stays so.
    """
    from scipy import signal

    # sosfilt needs writable coefficients
    y, zf = signal.sosfilt(sos.copy(), x, zi=np.zeros((len(sos), 2)))
    if not np.all(np.isfinite(y)):
        k = int(np.argmin(np.isfinite(zf).all(axis=1)))
        raise NumericalInstabilityError(f"non-finite output at filter stage {k} of {len(sos)}")
    return y


def decimate(ts, target_rate_hz, cutoff_hz=None, order=DEFAULT_ORDER):
    """Low-pass then keep every factor-th sample.

    The source rate must be an integer multiple of the target rate. When
    target equals source the signal passes through untouched.
    """
    factor = ts.sample_rate_hz / target_rate_hz
    if abs(factor - round(factor)) > 1e-9 or factor < 1:
        raise FilterDesignError(
            f"record {ts.record_id!r}: decimation factor {factor} is not a positive "
            f"integer ({ts.sample_rate_hz} Hz -> {target_rate_hz} Hz)"
        )
    factor = int(round(factor))
    if factor == 1:
        return ts
    if cutoff_hz is None:
        cutoff_hz = CUTOFF_SAFETY * (target_rate_hz / 2.0)
    sos = design_butterworth_lowpass(cutoff_hz, ts.sample_rate_hz, order)
    return replace(ts, samples=apply_filter(sos, ts.samples)[::factor],
                   sample_rate_hz=float(target_rate_hz))
