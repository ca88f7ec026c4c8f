"""Programmable analog front-end of one ISIF input channel (fig. 4).

"The readout stage is composed by an operational amplifier that can be
programmed to implement a charge amplifier, a trans-resistive stage or
an instrument amplifier."  The anemometer uses the instrument-amplifier
mode on the bridge differential; the other two modes are implemented for
platform completeness (they serve capacitive and photo/current sensors).

Imperfections modelled: programmable-gain steps, input-referred offset
with trim, input-referred noise (white + 1/f), finite bandwidth
(single-pole), and rail saturation — each one visible to the
calibration firmware the way it would be on silicon.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import math

import numpy as np

from repro.errors import ConfigurationError, SaturationError

__all__ = ["ReadoutMode", "AFEConfig", "AnalogFrontEnd"]


class ReadoutMode(Enum):
    """Operating mode of the programmable readout opamp."""

    INSTRUMENT = "instrument"
    CHARGE = "charge"
    TRANSRESISTIVE = "transresistive"


#: Discrete PGA gain settings available on the channel.
GAIN_STEPS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)


@dataclass(frozen=True)
class AFEConfig:
    """Static configuration of the front-end.

    Attributes
    ----------
    mode:
        Readout topology.
    gain_index:
        Index into :data:`GAIN_STEPS` (instrument mode).
    rail_v:
        Analog supply rail; outputs clip at ±rail.
    bandwidth_hz:
        Closed-loop single-pole bandwidth.
    offset_v:
        Input-referred offset before trimming.
    offset_trim_v:
        Trim applied by firmware (subtracts from the offset).
    noise_density_v_per_rthz:
        White input noise density [V/√Hz].
    flicker_corner_hz:
        1/f corner of the input noise.
    feedback_capacitance_f:
        Charge-amp feedback capacitor (CHARGE mode only).
    feedback_resistance_ohm:
        Trans-resistance feedback resistor (TRANSRESISTIVE mode only).
    strict:
        If True, clipping raises :class:`SaturationError` instead of
        silently limiting — useful in tests.
    """

    mode: ReadoutMode = ReadoutMode.INSTRUMENT
    gain_index: int = 4
    rail_v: float = 2.5
    bandwidth_hz: float = 10_000.0
    offset_v: float = 0.5e-3
    offset_trim_v: float = 0.0
    noise_density_v_per_rthz: float = 20.0e-9
    flicker_corner_hz: float = 10.0
    feedback_capacitance_f: float = 10.0e-12
    feedback_resistance_ohm: float = 1.0e6
    strict: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.gain_index < len(GAIN_STEPS):
            raise ConfigurationError(
                f"gain_index must be in [0, {len(GAIN_STEPS) - 1}]")
        if self.rail_v <= 0.0 or self.bandwidth_hz <= 0.0:
            raise ConfigurationError("rail and bandwidth must be positive")
        if self.noise_density_v_per_rthz < 0.0 or self.flicker_corner_hz < 0.0:
            raise ConfigurationError("noise parameters must be non-negative")
        if self.feedback_capacitance_f <= 0.0 or self.feedback_resistance_ohm <= 0.0:
            raise ConfigurationError("feedback elements must be positive")

    @property
    def gain(self) -> float:
        """Instrument-amplifier voltage gain of the selected step."""
        return GAIN_STEPS[self.gain_index]


class AnalogFrontEnd:
    """Stateful front-end: call :meth:`process` once per sample.

    The single-pole bandwidth limit is applied as an exact first-order
    discrete filter, and the sampled input-referred noise is the white
    density integrated over the Nyquist band of the calling rate plus a
    1/f contribution approximated by a slow random-walk component.
    """

    STATE = ("_state_v", "_flicker_v", "_clipped", "_rng")

    def __init__(self, config: AFEConfig | None = None,
                 rng: np.random.Generator | None = None) -> None:
        self.config = config or AFEConfig()
        self._rng = rng or np.random.default_rng(0)
        self._state_v = 0.0
        self._flicker_v = 0.0
        self._clipped = False

    @property
    def clipped(self) -> bool:
        """True if the last sample hit a rail (sticky until read)."""
        flag, self._clipped = self._clipped, False
        return flag

    def retrim(self, offset_trim_v: float) -> None:
        """Firmware offset-trim update (register write on silicon)."""
        from dataclasses import replace
        self.config = replace(self.config, offset_trim_v=offset_trim_v)

    def process(self, inp: float, dt: float) -> float:
        """Condition one input sample taken ``dt`` seconds after the last.

        ``inp`` is volts in INSTRUMENT mode, coulombs per step in CHARGE
        mode, amperes in TRANSRESISTIVE mode.
        """
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        cfg = self.config
        ideal = self._ideal_output(inp, dt)
        noisy = ideal + self._sample_noise(dt) * self._output_noise_gain()
        # Single-pole bandwidth.
        alpha = 1.0 - math.exp(-2.0 * math.pi * cfg.bandwidth_hz * dt)
        self._state_v += alpha * (noisy - self._state_v)
        out = self._state_v
        if abs(out) > cfg.rail_v:
            self._clipped = True
            if cfg.strict:
                raise SaturationError(
                    f"AFE output {out:.3f} V beyond ±{cfg.rail_v} V rail")
            out = cfg.rail_v if out > 0.0 else -cfg.rail_v
            self._state_v = out
        return out

    # -- internals ------------------------------------------------------------

    def _ideal_output(self, inp: float, dt: float) -> float:
        cfg = self.config
        residual_offset = cfg.offset_v - cfg.offset_trim_v
        if cfg.mode is ReadoutMode.INSTRUMENT:
            return (inp + residual_offset) * cfg.gain
        if cfg.mode is ReadoutMode.TRANSRESISTIVE:
            return inp * cfg.feedback_resistance_ohm + residual_offset * cfg.gain
        # CHARGE: V = Q / Cf, integrating charge packets per call.
        return inp / cfg.feedback_capacitance_f + residual_offset * cfg.gain

    def _output_noise_gain(self) -> float:
        cfg = self.config
        if cfg.mode is ReadoutMode.INSTRUMENT:
            return cfg.gain
        if cfg.mode is ReadoutMode.TRANSRESISTIVE:
            return cfg.gain
        return 1.0 / (cfg.feedback_capacitance_f * 1e9)  # noise charge -> V

    def _sample_noise(self, dt: float) -> float:
        cfg = self.config
        nyquist = 0.5 / dt
        white_rms = cfg.noise_density_v_per_rthz * math.sqrt(nyquist)
        # 1/f as a bounded random walk with corner-frequency leak.
        leak = math.exp(-2.0 * math.pi * cfg.flicker_corner_hz * dt * 0.1)
        flicker_rms = cfg.noise_density_v_per_rthz * math.sqrt(
            max(math.log(max(cfg.flicker_corner_hz, 1e-3) / 1e-3), 0.0))
        self._flicker_v = self._flicker_v * leak + flicker_rms * math.sqrt(
            max(1.0 - leak * leak, 0.0)) * self._rng.normal()
        return white_rms * self._rng.normal() + self._flicker_v
