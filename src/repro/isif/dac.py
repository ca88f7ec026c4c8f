"""Thermometer-coded DACs of the sensor driving stage.

"The sensor driving stage of the platform is provided by a set of
configurable 12 bit and 10 bit thermometer DACs."  The CTA loop's PI
output lands on a 12-bit DAC that supplies the Wheatstone bridges; a
10-bit one trims the bridge balance.

Thermometer coding means 2^n - 1 nominally equal elements are summed,
which guarantees monotonicity; element mismatch shows up as INL (a
random-walk bow) but never as a missing code — a property the tests
assert and the closed loop quietly depends on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ThermometerDAC"]


class ThermometerDAC:
    """An n-bit thermometer DAC with element mismatch.

    Parameters
    ----------
    bits:
        Resolution; the element array has 2**bits - 1 unit cells.
    vref_v:
        Output at full-scale code.
    mismatch_sigma:
        Relative 1-sigma mismatch of one unit element (0.35 µm BCD
        unit current sources match to ~0.1 % at this size).
    seed:
        Mismatch draw seed — each instance is one particular die.
    settling_time_s:
        First-order output settling; 0 disables dynamics.
    """

    STATE = ("_levels_v", "_output_v")

    def __init__(self, bits: int = 12, vref_v: float = 5.0,
                 mismatch_sigma: float = 1.0e-3, seed: int = 99,
                 settling_time_s: float = 0.0) -> None:
        if not 4 <= bits <= 14:
            raise ConfigurationError("thermometer DACs beyond 14 bits are impractical")
        if vref_v <= 0.0:
            raise ConfigurationError("vref must be positive")
        if mismatch_sigma < 0.0 or settling_time_s < 0.0:
            raise ConfigurationError("mismatch and settling must be non-negative")
        self.bits = bits
        self.vref_v = vref_v
        self.settling_time_s = settling_time_s
        self.max_code = (1 << bits) - 1
        rng = np.random.default_rng(seed)
        elements = 1.0 + mismatch_sigma * rng.normal(size=self.max_code)
        # Cumulative element sums give every static level exactly once.
        levels = np.concatenate([[0.0], np.cumsum(elements)])
        self._levels_v = levels / levels[-1] * vref_v
        self._output_v = 0.0

    @property
    def lsb_v(self) -> float:
        """Nominal LSB weight [V]."""
        return self.vref_v / self.max_code

    def ideal_output(self, code: int) -> float:
        """Static level for a code, mismatch included, no dynamics [V]."""
        if not 0 <= code <= self.max_code:
            raise ConfigurationError(
                f"code {code} out of range [0, {self.max_code}]")
        return float(self._levels_v[code])

    def update(self, code: int, dt: float | None = None) -> float:
        """Apply a code; returns the (possibly settling) output voltage."""
        target = self.ideal_output(code)
        if not self.settling_time_s or dt is None:
            self._output_v = target
        else:
            alpha = 1.0 - np.exp(-dt / self.settling_time_s)
            self._output_v += alpha * (target - self._output_v)
        return self._output_v

    def code_for_voltage(self, volts: float) -> int:
        """Nearest code for a requested output (firmware helper)."""
        code = int(np.floor(volts / self.lsb_v + 0.5))
        return int(np.clip(code, 0, self.max_code))

    def inl_lsb(self) -> np.ndarray:
        """Integral nonlinearity of every code in LSB (endpoint-fit)."""
        codes = np.arange(self.max_code + 1)
        ideal = codes * self.lsb_v
        return (self._levels_v - ideal) / self.lsb_v

    def dnl_lsb(self) -> np.ndarray:
        """Differential nonlinearity per step in LSB."""
        steps = np.diff(self._levels_v)
        return steps / self.lsb_v - 1.0
