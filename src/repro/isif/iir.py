"""IIR filter IPs (biquad and one-pole) with bit-exact fixed-point paths.

The anemometer's final "IIR filter down to the bandwidth of 0.1 Hz"
(§4) is a first-order low-pass running on the decimated rate; the
biquad covers the general platform IP.  As with the FIR, constructing
with a :class:`QFormat` switches the datapath to integer arithmetic so
hardware and software-peripheral execution match bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.isif.fixed_point import QFormat

__all__ = ["IIRBiquad", "OnePoleLowpass", "design_lowpass_biquad"]


class OnePoleLowpass:
    """y[n] = y[n-1] + alpha (x[n] - y[n-1]).

    Parameters
    ----------
    cutoff_hz / sample_rate_hz:
        Corner and calling rate; alpha = 1 - exp(-2 pi fc / fs).
    qformat:
        Optional fixed-point format for a bit-exact datapath.  The
        silicon block uses a power-of-two alpha (barrel shift instead of
        a multiplier); pass ``shift_alpha=True`` to round alpha to the
        nearest 2^-k the way the hardware IP does.
    """

    STATE = ("alpha", "_y_f", "_y_code")

    def __init__(self, cutoff_hz: float, sample_rate_hz: float,
                 qformat: QFormat | None = None,
                 shift_alpha: bool = False) -> None:
        if cutoff_hz <= 0.0 or sample_rate_hz <= 0.0:
            raise ConfigurationError("cutoff and rate must be positive")
        if cutoff_hz >= sample_rate_hz / 2.0:
            raise ConfigurationError("cutoff at or above Nyquist")
        alpha = 1.0 - np.exp(-2.0 * np.pi * cutoff_hz / sample_rate_hz)
        self.shift_bits: int | None = None
        if shift_alpha:
            self.shift_bits = max(1, int(round(-np.log2(alpha))))
            alpha = 2.0 ** (-self.shift_bits)
        self.alpha = float(alpha)
        self.cutoff_hz = cutoff_hz
        self.sample_rate_hz = sample_rate_hz
        self.qformat = qformat
        self._y_f = 0.0
        self._y_code = 0
        if qformat is not None and self.shift_bits is None:
            self._alpha_code = qformat.to_int(self.alpha)

    def reset(self, value: float = 0.0) -> None:
        """Preset the state (e.g. to the first sample to avoid a long tail)."""
        self._y_f = value
        if self.qformat is not None:
            self._y_code = self.qformat.to_int(value)

    def step(self, x: float) -> float:
        """Filter one sample."""
        if self.qformat is None:
            self._y_f += self.alpha * (x - self._y_f)
            return self._y_f
        return self.qformat.to_float(self.step_codes(self.qformat.to_int(x)))

    def step_codes(self, x_code: int) -> int:
        """Bit-exact integer step."""
        q = self.qformat
        if q is None:
            raise ConfigurationError("filter was built without a Q-format")
        diff = x_code - self._y_code
        if self.shift_bits is not None:
            k = self.shift_bits
            inc = (diff + (1 << (k - 1))) >> k if k > 0 else diff
        else:
            prod = diff * self._alpha_code
            inc = (prod + (1 << (q.frac_bits - 1))) >> q.frac_bits
        self._y_code = q.saturate(self._y_code + inc)
        return self._y_code

    def process(self, x: np.ndarray) -> np.ndarray:
        """Filter a block (state carries over)."""
        return np.array([self.step(float(v)) for v in np.asarray(x, dtype=float)])

    def settling_time_s(self, fraction: float = 0.01) -> float:
        """Time to settle within ``fraction`` of a step (continuous est.)."""
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError("fraction must be in (0, 1)")
        tau = 1.0 / (2.0 * np.pi * self.cutoff_hz)
        return float(-tau * np.log(fraction))


class IIRBiquad:
    """Direct-form-I biquad: b0..b2 / a1..a2 (a0 normalised to 1)."""

    def __init__(self, b: np.ndarray, a: np.ndarray,
                 qformat: QFormat | None = None) -> None:
        b = np.asarray(b, dtype=float)
        a = np.asarray(a, dtype=float)
        if b.shape != (3,) or a.shape not in ((2,), (3,)):
            raise ConfigurationError("expect b of length 3 and a of length 2 or 3")
        if a.shape == (3,):
            if a[0] == 0.0:
                raise ConfigurationError("a0 must be nonzero")
            b = b / a[0]
            a = a[1:] / a[0]
        # Stability: poles inside the unit circle.
        poles = np.roots(np.concatenate([[1.0], a]))
        if np.any(np.abs(poles) >= 1.0):
            raise ConfigurationError(f"unstable biquad: |poles| = {np.abs(poles)}")
        self.b = b
        self.a = a
        self.qformat = qformat
        if qformat is not None:
            self._b_codes = [qformat.to_int(c) for c in b]
            self._a_codes = [qformat.to_int(c) for c in a]
        self._x_hist = [0.0, 0.0]
        self._y_hist = [0.0, 0.0]
        self._xi_hist = [0, 0]
        self._yi_hist = [0, 0]

    def reset(self) -> None:
        """Clear delay lines."""
        self._x_hist = [0.0, 0.0]
        self._y_hist = [0.0, 0.0]
        self._xi_hist = [0, 0]
        self._yi_hist = [0, 0]

    def step(self, x: float) -> float:
        """Filter one sample."""
        if self.qformat is None:
            y = (self.b[0] * x + self.b[1] * self._x_hist[0]
                 + self.b[2] * self._x_hist[1]
                 - self.a[0] * self._y_hist[0] - self.a[1] * self._y_hist[1])
            self._x_hist = [x, self._x_hist[0]]
            self._y_hist = [y, self._y_hist[0]]
            return float(y)
        return self.qformat.to_float(self.step_codes(self.qformat.to_int(x)))

    def step_codes(self, x_code: int) -> int:
        """Bit-exact integer step (single rounding at the accumulator)."""
        q = self.qformat
        if q is None:
            raise ConfigurationError("filter was built without a Q-format")
        acc = (self._b_codes[0] * x_code
               + self._b_codes[1] * self._xi_hist[0]
               + self._b_codes[2] * self._xi_hist[1]
               - self._a_codes[0] * self._yi_hist[0]
               - self._a_codes[1] * self._yi_hist[1])
        shift = q.frac_bits
        y = (acc + (1 << (shift - 1))) >> shift if shift > 0 else acc
        y = q.saturate(y)
        self._xi_hist = [x_code, self._xi_hist[0]]
        self._yi_hist = [y, self._yi_hist[0]]
        return y

    def process(self, x: np.ndarray) -> np.ndarray:
        """Filter a block (state carries over)."""
        return np.array([self.step(float(v)) for v in np.asarray(x, dtype=float)])

    def dc_gain(self) -> float:
        """Gain at DC."""
        return float(np.sum(self.b) / (1.0 + np.sum(self.a)))


def design_lowpass_biquad(cutoff_hz: float, sample_rate_hz: float,
                          q_factor: float = 0.7071) -> tuple[np.ndarray, np.ndarray]:
    """RBJ cookbook low-pass biquad design: returns (b, a1a2)."""
    if cutoff_hz <= 0.0 or cutoff_hz >= sample_rate_hz / 2.0:
        raise ConfigurationError("cutoff must be inside (0, Nyquist)")
    if q_factor <= 0.0:
        raise ConfigurationError("Q must be positive")
    w0 = 2.0 * np.pi * cutoff_hz / sample_rate_hz
    alpha = np.sin(w0) / (2.0 * q_factor)
    cos_w0 = np.cos(w0)
    b = np.array([(1 - cos_w0) / 2.0, 1 - cos_w0, (1 - cos_w0) / 2.0])
    a0 = 1 + alpha
    a = np.array([-2.0 * cos_w0, 1 - alpha])
    return b / a0, a / a0
