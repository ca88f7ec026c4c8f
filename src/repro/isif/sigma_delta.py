"""The channel's 16-bit Sigma-Delta ADC.

Two interchangeable models (DESIGN.md §5, ablated in experiment E13):

* :class:`SigmaDeltaAdc` — *bit-true*: a 2nd-order single-bit CIFB
  modulator stepped OSR times per output sample, decimated by the CIC in
  :mod:`repro.isif.decimator`.  Slow but structurally faithful — it
  exhibits real quantisation noise shaping, idle tones and overload.
* :class:`BehavioralAdc` — *noise-equivalent*: quantises directly to
  16 bits and adds the thermal + shaped-quantisation noise budget as a
  Gaussian.  ~100x faster; the default for system benches.

Both present the same interface: ``convert(volts) -> signed int code``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["BehavioralAdc", "SigmaDeltaModulator", "SigmaDeltaAdc"]


class BehavioralAdc:
    """Noise-equivalent 16-bit ADC model.

    Parameters
    ----------
    vref_v:
        Full scale is ±vref.
    bits:
        Output word length.
    enob:
        Effective number of bits; total input-referred noise is sized so
        SNR matches this ENOB (quantisation included).  15.0 is typical
        for a 16-bit ΣΔ at moderate OSR.
    rng:
        Noise generator (deterministic when seeded).
    """

    STATE = ("_thermal_rms_v", "_lsb_v", "_min_code", "_max_code", "_rng")

    def __init__(self, vref_v: float = 2.5, bits: int = 16, enob: float = 15.0,
                 rng: np.random.Generator | None = None) -> None:
        if vref_v <= 0.0:
            raise ConfigurationError("vref must be positive")
        if not 2 <= bits <= 24:
            raise ConfigurationError("bits must be in [2, 24]")
        if enob > bits:
            raise ConfigurationError("ENOB cannot exceed the word length")
        self.vref_v = vref_v
        self.bits = bits
        self.enob = enob
        self._rng = rng or np.random.default_rng(0)
        self._max_code = (1 << (bits - 1)) - 1
        self._min_code = -(1 << (bits - 1))
        lsb = 2.0 * vref_v / (1 << bits)
        ideal_noise = lsb / np.sqrt(12.0)
        total_noise = ideal_noise * 2.0 ** (bits - enob)
        # Extra (thermal) noise on top of the ideal quantisation floor.
        self._thermal_rms_v = float(np.sqrt(max(total_noise**2 - ideal_noise**2, 0.0)))
        self._lsb_v = lsb

    @property
    def lsb_v(self) -> float:
        """Weight of one output code [V]."""
        return self._lsb_v

    def convert(self, volts: float) -> int:
        """One conversion: signed two's-complement code."""
        noisy = volts + self._thermal_rms_v * self._rng.normal()
        code = int(noisy / self._lsb_v + (0.5 if noisy >= 0.0 else -0.5))
        return min(max(code, self._min_code), self._max_code)

    def to_volts(self, code: int) -> float:
        """Nominal input voltage for a code."""
        return code * self._lsb_v


class SigmaDeltaModulator:
    """2nd-order single-bit CIFB ΣΔ modulator.

    Classic boser-wooley integrator chain:

        x1' = x1 + (u - v)        (v = ±1 feedback)
        x2' = x2 + (x1 - v)
        v   = sign(x2)

    with integrator gains 0.5 / 0.5 for robust stability up to ~-6 dBFS
    inputs.  Input u is normalised to ±1 full scale.
    """

    GAIN1 = 0.5
    GAIN2 = 0.5

    def __init__(self, vref_v: float = 2.5) -> None:
        if vref_v <= 0.0:
            raise ConfigurationError("vref must be positive")
        self.vref_v = vref_v
        self._x1 = 0.0
        self._x2 = 0.0

    def reset(self) -> None:
        """Clear integrator state."""
        self._x1 = 0.0
        self._x2 = 0.0

    def step(self, volts: float) -> int:
        """One modulator clock: returns the output bit as +1 / -1."""
        u = float(np.clip(volts / self.vref_v, -1.2, 1.2))
        v = 1.0 if self._x2 >= 0.0 else -1.0
        self._x1 += self.GAIN1 * (u - v)
        self._x2 += self.GAIN2 * (self._x1 - v)
        # Integrator clipping (finite swing) keeps overload recoverable.
        self._x1 = float(np.clip(self._x1, -4.0, 4.0))
        self._x2 = float(np.clip(self._x2, -4.0, 4.0))
        return 1 if v > 0.0 else -1

    def run(self, volts: np.ndarray) -> np.ndarray:
        """Modulate a whole block (sequential, state carries over)."""
        out = np.empty(len(volts), dtype=np.int8)
        x1, x2 = self._x1, self._x2
        g1, g2 = self.GAIN1, self.GAIN2
        vref = self.vref_v
        for i, sample in enumerate(np.asarray(volts, dtype=float)):
            u = min(max(sample / vref, -1.2), 1.2)
            v = 1.0 if x2 >= 0.0 else -1.0
            x1 += g1 * (u - v)
            x2 += g2 * (x1 - v)
            x1 = min(max(x1, -4.0), 4.0)
            x2 = min(max(x2, -4.0), 4.0)
            out[i] = 1 if v > 0.0 else -1
        self._x1, self._x2 = x1, x2
        return out


class SigmaDeltaAdc:
    """Bit-true ΣΔ ADC: modulator + CIC decimation to 16-bit codes.

    ``convert`` takes the (assumed constant over the conversion) input
    voltage, runs the modulator for OSR clocks, decimates, and scales to
    a signed 16-bit code compatible with :class:`BehavioralAdc`.
    """

    def __init__(self, vref_v: float = 2.5, osr: int = 64, bits: int = 16,
                 thermal_noise_v: float = 10.0e-6,
                 rng: np.random.Generator | None = None) -> None:
        from repro.isif.decimator import CICDecimator  # local to avoid cycle
        if osr < 8:
            raise ConfigurationError("OSR below 8 cannot shape noise usefully")
        self.vref_v = vref_v
        self.osr = osr
        self.bits = bits
        self.thermal_noise_v = thermal_noise_v
        self.modulator = SigmaDeltaModulator(vref_v)
        self._cic = CICDecimator(order=3, rate=osr)
        self._rng = rng or np.random.default_rng(0)
        self._max_code = (1 << (bits - 1)) - 1

    @property
    def lsb_v(self) -> float:
        """Weight of one output code [V]."""
        return 2.0 * self.vref_v / (1 << self.bits)

    def convert(self, volts: float) -> int:
        """One full conversion (OSR modulator clocks)."""
        noise = self._rng.normal(0.0, self.thermal_noise_v, self.osr)
        bits_out = self.modulator.run(volts + noise)
        decimated = self._cic.decimate(bits_out.astype(np.int64))
        if decimated.size == 0:
            # CIC pipeline still filling (first conversion); run once more.
            bits_out = self.modulator.run(volts + noise)
            decimated = self._cic.decimate(bits_out.astype(np.int64))
        # CIC gain is rate**order; normalise to ±1 then to codes.
        normalised = float(decimated[-1]) / self._cic.gain
        code = int(np.floor(normalised * (self._max_code + 1) + 0.5))
        return int(np.clip(code, -self._max_code - 1, self._max_code))

    def to_volts(self, code: int) -> float:
        """Nominal input voltage for a code."""
        return code * self.lsb_v
