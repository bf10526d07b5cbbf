"""How fast the host runs while the benchmark's child processes run.

The host's speed drifts by up to 2x over minutes, and a process's time
follows it. `HostSpeed` times a fixed small load, which uses numpy only
and never the program under test, in a background thread every
PERIOD_S while the benchmark waits for a child. The thread is idle about
99% of the time, so on a 2-CPU host it does not compete with the
single-threaded child. run.py takes the median load time over all the
timed processes of a run and multiplies the run's medians by
`scale(median)`, which brings them to a host of fixed speed.

EXPONENT is measured: over 72 CLI calls of the three workloads, the log
of a call's time rose with the log of this load's mean time during it at
slopes of 0.54 to 0.69 (and, over ten-run sets, the log of a run's
median pass with that of an earlier, separate-process load at 0.57 to
0.73). See README.md, "Host speed".
"""

import threading
import time

import numpy as np

PERIOD_S = 0.1
EXPONENT = 0.6
# The load's time on an idle 2-CPU VM: a scaled time reads as seconds on
# a host where the load takes this long.
REF_S = 0.0012
_X = np.linspace(0.0, 1.0, 64)


def load():
    """The fixed load: 300 small numpy calls and float operations."""
    acc = 0.0
    for i in range(300):
        acc += float(np.cumsum(_X * i)[-1]) + (i * 0.5) ** 0.5
    return acc


def scale(load_s):
    """The factor that brings a time measured while the load took load_s to a host where it takes REF_S."""
    return (REF_S / load_s) ** EXPONENT


class HostSpeed:
    """Context manager: times `load()` every PERIOD_S until it exits; the times are in `times`."""

    def __init__(self):
        self.times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while True:
            t0 = time.perf_counter()
            load()
            self.times.append(time.perf_counter() - t0)
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
