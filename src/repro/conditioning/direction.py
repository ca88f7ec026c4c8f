"""Flow-direction detection from the dual-heater asymmetry.

§2: "For the measurement of the direction of a flow the heating
resistors are arranged twice on a chip ... The fluid picks up heat at
the first resistor and transfers this to the second resistor.  The
results are different cooling effects on the two resistors.  This
difference can be taken for the measurement of directionality."

In constant-temperature operation the downstream heater — bathed in the
upstream heater's warm wake — needs *less* power, hence a lower supply.
The detector therefore looks at the normalised supply-squared asymmetry

    d = (u_a² − u_b²) / (u_a² + u_b²)

(positive ⇒ A works harder ⇒ A is upstream ⇒ forward flow), subtracts
the calibration zero offset (heater mismatch), low-passes it, and
applies hysteresis so turbulence near zero flow cannot chatter the sign.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.isif.iir import OnePoleLowpass

__all__ = ["DirectionConfig", "DirectionDetector"]


@dataclass(frozen=True)
class DirectionConfig:
    """Detector tuning.

    Attributes
    ----------
    offset:
        Calibration zero offset of the asymmetry (heater mismatch).
    threshold:
        Asymmetry magnitude needed to *claim* a direction.
    hysteresis:
        Extra margin required to *flip* an already-claimed direction.
    filter_cutoff_hz / sample_rate_hz:
        Asymmetry low-pass ahead of the comparator.
    """

    offset: float = 0.0
    threshold: float = 0.004
    hysteresis: float = 0.002
    filter_cutoff_hz: float = 1.0
    sample_rate_hz: float = 1000.0

    def __post_init__(self) -> None:
        if self.threshold <= 0.0 or self.hysteresis < 0.0:
            raise ConfigurationError("threshold must be positive, hysteresis >= 0")
        if self.filter_cutoff_hz <= 0.0:
            raise ConfigurationError("filter cutoff must be positive")


class DirectionDetector:
    """Stateful direction discriminator; feed it every valid loop sample."""

    STATE = ("_direction", "_filter")

    def __init__(self, config: DirectionConfig | None = None) -> None:
        self.config = config or DirectionConfig()
        self._filter = OnePoleLowpass(self.config.filter_cutoff_hz,
                                      self.config.sample_rate_hz)
        self._direction = 0  # -1 reverse, 0 unknown/still, +1 forward

    @property
    def direction(self) -> int:
        """Current direction claim: +1 forward, -1 reverse, 0 undecided."""
        return self._direction

    @staticmethod
    def asymmetry(supply_a_v: float, supply_b_v: float) -> float:
        """Normalised supply-squared asymmetry d in [-1, 1]."""
        pa = supply_a_v * supply_a_v
        pb = supply_b_v * supply_b_v
        total = pa + pb
        if total <= 0.0:
            return 0.0
        return (pa - pb) / total

    def update(self, supply_a_v: float, supply_b_v: float) -> int:
        """Process one sample pair; returns the (possibly new) direction."""
        cfg = self.config
        d = self._filter.step(self.asymmetry(supply_a_v, supply_b_v) - cfg.offset)
        if self._direction == 0:
            if d > cfg.threshold:
                self._direction = 1
            elif d < -cfg.threshold:
                self._direction = -1
        elif self._direction == 1 and d < -(cfg.threshold + cfg.hysteresis):
            self._direction = -1
        elif self._direction == -1 and d > cfg.threshold + cfg.hysteresis:
            self._direction = 1
        return self._direction

    def reset(self) -> None:
        """Forget the current claim and filter state."""
        self._filter.reset()
        self._direction = 0
