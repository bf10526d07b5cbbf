"""Anti-alias filtering and integer-factor decimation.

Replicates the oversample -> low-pass -> downsample chain used for the
accelerometer recordings (160 kHz capture decimated to a 10 kHz working
rate through a high-order Butterworth low-pass).
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import FilterDesignError, NumericalInstabilityError

DEFAULT_ORDER = 100
# Anti-alias cutoff sits at 0.9x the target Nyquist by default.
CUTOFF_SAFETY = 0.9


@dataclass(frozen=True)
class FilterSpec:
    cutoff_hz: float
    order: int
    sos: np.ndarray  # (order/2, 6) second-order sections

    @property
    def n_stages(self):
        return self.sos.shape[0]


@lru_cache(maxsize=16)
def design_butterworth_lowpass(cutoff_hz, sample_rate_hz, order=DEFAULT_ORDER):
    """Design a Butterworth low-pass as a cascade of second-order stages.

    Cached by its arguments (a design error is raised on every call), so
    the returned `sos` is shared and read-only. scipy.signal is imported
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
    return FilterSpec(cutoff_hz=float(cutoff_hz), order=int(order), sos=sos)


def apply_filter(spec, ts):
    """Run a TimeSeries through the cascade, single-pass (causal).

    One sosfilt call runs every stage; its output is bitwise that of
    filtering stage by stage. Only a non-finite output is filtered again
    stage by stage, to name the first stage that blew up.
    """
    from scipy import signal

    sos = spec.sos.copy()  # sosfilt needs writable coefficients
    y = signal.sosfilt(sos, ts.samples)
    if not np.all(np.isfinite(y)):
        x = ts.samples
        for k in range(spec.n_stages):
            x = signal.sosfilt(sos[k : k + 1], x)
            if not np.all(np.isfinite(x)):
                break
        raise NumericalInstabilityError(
            f"non-finite output at filter stage {k} of {spec.n_stages}"
        )
    return replace(ts, samples=y)


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
    spec = design_butterworth_lowpass(cutoff_hz, ts.sample_rate_hz, order)
    filtered = apply_filter(spec, ts)
    return replace(
        filtered,
        samples=filtered.samples[::factor],
        sample_rate_hz=float(target_rate_hz),
    )
