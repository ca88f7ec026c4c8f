"""Anti-aliasing low-pass ahead of the ΣΔ ADC.

A second-order Butterworth, discretised (bilinear transform at the
simulation rate) once per (corner, rate) per process and shared by
every channel with that design; each filter keeps its own state and
runs sample-by-sample.  In the real channel this is a continuous gm-C
stage; modelling it discretely at the loop rate is adequate because
everything above the loop Nyquist is already folded by the simulation
itself.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import signal

from repro.errors import ConfigurationError

__all__ = ["AntiAliasFilter"]


@lru_cache(maxsize=64)
def _butter_sos(cutoff_hz: float, sample_rate_hz: float) -> tuple[tuple[float, ...], ...]:
    """Second-order sections of the Butterworth, as immutable floats."""
    sos = signal.butter(2, cutoff_hz, fs=sample_rate_hz, output="sos")
    return tuple(tuple(float(c) for c in row) for row in sos)


class AntiAliasFilter:
    """Second-order Butterworth low-pass, stepped per sample.

    Parameters
    ----------
    cutoff_hz:
        -3 dB corner.
    sample_rate_hz:
        Fixed calling rate; must exceed 2x the corner.
    """

    def __init__(self, cutoff_hz: float, sample_rate_hz: float) -> None:
        if cutoff_hz <= 0.0 or sample_rate_hz <= 0.0:
            raise ConfigurationError("cutoff and sample rate must be positive")
        if cutoff_hz >= sample_rate_hz / 2.0:
            raise ConfigurationError(
                f"cutoff {cutoff_hz} Hz at or above Nyquist of {sample_rate_hz} Hz")
        self.cutoff_hz = cutoff_hz
        self.sample_rate_hz = sample_rate_hz
        # Per-sample stepping uses a hand-rolled DF2T cascade: calling
        # scipy's sosfilt on length-1 arrays dominates the loop profile.
        self._coeffs = list(_butter_sos(cutoff_hz, sample_rate_hz))
        self._state = [[0.0, 0.0] for _ in self._coeffs]

    def step(self, x: float) -> float:
        """Filter one sample (direct-form II transposed per section)."""
        y = float(x)
        for (b0, b1, b2, _a0, a1, a2), st in zip(self._coeffs, self._state):
            out = b0 * y + st[0]
            st[0] = b1 * y - a1 * out + st[1]
            st[1] = b2 * y - a2 * out
            y = out
        return y

    def process(self, x: np.ndarray) -> np.ndarray:
        """Filter a block of samples (state carries over)."""
        return np.array([self.step(float(v)) for v in np.asarray(x, dtype=float)])

    def reset(self, value: float = 0.0) -> None:
        """Reset internal state to a settled DC value."""
        self._state = [[0.0, 0.0] for _ in self._coeffs]
        if value != 0.0:
            # Run to steady state on the DC value (cheap: ~10 time consts).
            settle = int(10.0 * self.sample_rate_hz / self.cutoff_hz)
            for _ in range(settle):
                self.step(value)
