"""PI controller IP — the heart of the constant-temperature loop.

"Closed loop is implemented by software-emulated IPs which feature
reference subtraction, PI controller and feedback actuation directly to
supply the two bridges" (§4).  The controller output is the bridge
supply voltage, which — at loop equilibrium — *is* the measurement
(proportional to the mass flow through King's law).

Anti-windup is conditional integration with back-calculation: when the
output saturates at the DAC range, the integrator only accepts error of
the de-saturating sign.  The fixed-point path matches the hardware IP
bit for bit, as with the other DSP blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.isif.fixed_point import QFormat

__all__ = ["PIConfig", "PIController"]


@dataclass(frozen=True)
class PIConfig:
    """PI gains and limits.

    Attributes
    ----------
    kp:
        Proportional gain [output units / error unit].
    ki:
        Integral gain [output units / (error unit * s)].
    dt_s:
        Fixed execution period of the IP.
    out_min / out_max:
        Actuator limits (the 12-bit DAC's 0..vref span).
    qformat:
        Optional fixed-point datapath format.
    """

    kp: float
    ki: float
    dt_s: float
    out_min: float = 0.0
    out_max: float = 5.0
    qformat: QFormat | None = None

    def __post_init__(self) -> None:
        if self.kp < 0.0 or self.ki < 0.0:
            raise ConfigurationError("PI gains must be non-negative")
        if self.kp == 0.0 and self.ki == 0.0:
            raise ConfigurationError("at least one PI gain must be nonzero")
        if self.dt_s <= 0.0:
            raise ConfigurationError("dt must be positive")
        if self.out_min >= self.out_max:
            raise ConfigurationError("out_min must be below out_max")


class PIController:
    """Discrete PI with conditional-integration anti-windup."""

    STATE = ("_kp_code", "_ki_dt_code", "_min_code", "_max_code", "_int_code",
             "_integral", "_saturated_sign")

    def __init__(self, config: PIConfig) -> None:
        self.config = config
        self._integral = 0.0
        self._saturated_sign = 0
        self._int_code = 0
        # Q-format codes; None on the float datapath.
        self._kp_code = self._ki_dt_code = self._min_code = self._max_code = None
        q = config.qformat
        if q is not None:
            self._kp_code = q.to_int(config.kp)
            self._ki_dt_code = q.to_int(config.ki * config.dt_s)
            self._min_code = q.to_int(config.out_min)
            self._max_code = q.to_int(config.out_max)

    @property
    def integral(self) -> float:
        """Current integrator state (output units)."""
        if self.config.qformat is not None:
            return self.config.qformat.to_float(self._int_code)
        return self._integral

    def preset(self, output: float) -> None:
        """Bumpless start: preset the integrator to a known output."""
        cfg = self.config
        value = float(np.clip(output, cfg.out_min, cfg.out_max))
        self._integral = value
        if cfg.qformat is not None:
            self._int_code = cfg.qformat.to_int(value)
        self._saturated_sign = 0

    def reset(self) -> None:
        """Zero all state."""
        self.preset(self.config.out_min)

    def step(self, error: float) -> float:
        """One control period: error in, actuator command out."""
        if self.config.qformat is None:
            return self._step_float(error)
        q = self.config.qformat
        return q.to_float(self.step_codes(q.to_int(error)))

    def _step_float(self, error: float) -> float:
        cfg = self.config
        if self._saturated_sign == 0 or np.sign(error) != self._saturated_sign:
            self._integral += cfg.ki * error * cfg.dt_s
        raw = cfg.kp * error + self._integral
        out = float(np.clip(raw, cfg.out_min, cfg.out_max))
        if raw > cfg.out_max:
            self._saturated_sign = 1
        elif raw < cfg.out_min:
            self._saturated_sign = -1
        else:
            self._saturated_sign = 0
        # Back-calculate so the integrator can't run past the rails.
        self._integral = float(np.clip(self._integral, cfg.out_min - cfg.kp * abs(error),
                                       cfg.out_max + cfg.kp * abs(error)))
        return out

    def step_codes(self, error_code: int) -> int:
        """Bit-exact integer control step."""
        cfg = self.config
        q = cfg.qformat
        if q is None:
            raise ConfigurationError("controller was built without a Q-format")
        err_sign = (error_code > 0) - (error_code < 0)
        if self._saturated_sign == 0 or err_sign != self._saturated_sign:
            inc = q.mul(self._ki_dt_code, error_code)
            self._int_code = q.saturate(self._int_code + inc)
        p_term = q.mul(self._kp_code, error_code)
        raw = self._int_code + p_term
        if raw > self._max_code:
            self._saturated_sign = 1
            out = self._max_code
        elif raw < self._min_code:
            self._saturated_sign = -1
            out = self._min_code
        else:
            self._saturated_sign = 0
            out = raw
        # Integrator clamp (back-calculation analogue).
        self._int_code = min(max(self._int_code, self._min_code - abs(p_term)),
                             self._max_code + abs(p_term))
        return out
