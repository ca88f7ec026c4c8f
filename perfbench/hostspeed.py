"""Host-speed correction for the end-to-end timings.

On a shared host the same code runs up to ~1.5x slower from one
minute to the next (neighbouring load on the cores), which swamps any
bound a benchmark could set.  Before each timed request the benchmark
therefore times a fixed probe -- interpreter arithmetic plus NumPy calls
on 16-element arrays, the same kind of work as the program's hot loops
-- and scales the request's time by ``PROBE_REFERENCE_S / probe``.  The
reported times are seconds on a host running at the reference speed;
the raw wall times are printed in the provenance line beside them.

The probe is independent of the program, so a faster program still
reads faster; only the host's drift divides out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

#: What :func:`probe` takes on an unloaded 2-CPU 2.1 GHz Xeon host [s].
PROBE_REFERENCE_S = 0.006

_X0 = np.linspace(0.0, 1.0, 16)
_B = np.linspace(1.0, 2.0, 16)


def probe() -> float:
    """Seconds this host takes for the fixed probe right now."""
    t0 = time.perf_counter()
    v, acc = 1.0, 0.0
    for i in range(30000):
        v = v * 0.999 + 0.001 * (i % 13)
        acc += v * v
    x = _X0.copy()
    for _ in range(1500):
        x = np.exp(-x * 0.5) + _B * 0.25
        acc += float(x[3])
    return time.perf_counter() - t0


def speed_factor() -> float:
    """Scale from this host's current seconds to reference seconds."""
    return PROBE_REFERENCE_S / probe()


class HostClock:
    """Accumulates wall time, re-probing the host speed at every lap.

    Wall time spent in the probes is not counted; their CPU time is
    kept in ``probe_cpu_s`` for callers that measure CPU around a clock.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.probe_cpu_s = 0.0
        self._restart()

    def _restart(self) -> None:
        cpu0 = time.process_time()
        self._factor = speed_factor()
        self.probe_cpu_s += time.process_time() - cpu0
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        dt = time.perf_counter() - self._t0
        self.raw_s += dt
        self.scaled_s += dt * self._factor
        self._restart()

    @property
    def scale(self) -> float:
        """Reference seconds per raw second over the laps so far."""
        return self.scaled_s / self.raw_s if self.raw_s else 1.0

    @contextmanager
    def lapping_per_rig(self):
        """Lap before every monitor build a Session makes, so that a
        long set-up or run follows the host's drift through it."""
        import repro.runtime.session as session
        build = session.build_calibrated_monitor

        def lapped(*args, **kwargs):
            self.lap()
            return build(*args, **kwargs)
        session.build_calibrated_monitor = lapped
        try:
            yield self
        finally:
            session.build_calibrated_monitor = build
