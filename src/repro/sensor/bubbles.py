"""Bubble generation on the heated wire (fig. 7 of the paper).

In water, a continuously biased hot wire nucleates bubbles (dissolved
gas comes out of solution well below saturation; outright vapour forms
when the wall reaches the local boiling point).  Stuck bubbles insulate
the wire — vapour conducts ~25x worse than water — so the heat-transfer
calibration collapses and the signal becomes invalid.

The paper's fix, reproduced by this model:

* *pulsed* voltage driving — bubbles shrink and detach during the off
  intervals, so coverage never accumulates;
* *reduced overtemperature* relative to air operation — keeps the wall
  below the nucleation threshold in the first place.

State is a single surface-coverage fraction c in [0, 1) integrated with
nucleation/growth and detachment rates; coverage blends the film
conductance toward a vapour-blanket value and injects extra noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.physics.water import boiling_temperature

__all__ = ["BubbleConfig", "BubbleModel"]


@dataclass(frozen=True)
class BubbleConfig:
    """Tuning of the bubble surface model.

    Attributes
    ----------
    nucleation_superheat_k:
        Wall superheat above the *bulk* water at which dissolved-gas
        bubbles start nucleating on the passivation surface.  Around
        25 K for air-saturated potable water.
    growth_rate_per_k_s:
        Coverage growth rate per kelvin of superheat beyond onset [1/(K s)].
    shear_detach_per_mps_s:
        Detachment rate per m/s of local flow speed [1/( (m/s) s )].
    idle_detach_per_s:
        Detachment/collapse rate while the heater is unpowered [1/s] —
        this is what makes pulsed drive effective.
    base_detach_per_s:
        Always-on detachment floor (buoyancy, dissolution) [1/s].
    vapor_conductance_fraction:
        Film conductance of a fully bubble-blanketed surface relative to
        clean water (~1/25).
    noise_fraction:
        RMS multiplicative conductance noise injected at full coverage.
    """

    nucleation_superheat_k: float = 25.0
    growth_rate_per_k_s: float = 0.02
    shear_detach_per_mps_s: float = 0.8
    idle_detach_per_s: float = 1.5
    base_detach_per_s: float = 0.01
    vapor_conductance_fraction: float = 0.04
    noise_fraction: float = 0.30

    def __post_init__(self) -> None:
        if self.nucleation_superheat_k <= 0.0:
            raise ConfigurationError("nucleation superheat must be positive")
        rates = (
            self.growth_rate_per_k_s,
            self.shear_detach_per_mps_s,
            self.idle_detach_per_s,
            self.base_detach_per_s,
        )
        if any(r < 0.0 for r in rates):
            raise ConfigurationError("bubble rates must be non-negative")
        if not 0.0 < self.vapor_conductance_fraction < 1.0:
            raise ConfigurationError("vapour conductance fraction must be in (0, 1)")
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise ConfigurationError("noise fraction must be in [0, 1]")


class BubbleModel:
    """Surface bubble-coverage dynamics for one heater element."""

    STATE = ("_coverage", "_rng")

    def __init__(self, config: BubbleConfig | None = None,
                 rng: np.random.Generator | None = None) -> None:
        self.config = config or BubbleConfig()
        self._rng = rng or np.random.default_rng(0)
        self._coverage = 0.0

    @property
    def coverage(self) -> float:
        """Current bubble surface coverage fraction in [0, 1)."""
        return self._coverage

    def reset(self) -> None:
        """Return to a clean surface."""
        self._coverage = 0.0

    def step(
        self,
        dt: float,
        wall_temperature_k: float,
        bulk_temperature_k: float,
        pressure_pa: float,
        speed_mps: float,
        heater_powered: bool,
    ) -> float:
        """Advance coverage by ``dt`` seconds and return the new value.

        Nucleation activates once the wall superheat exceeds the onset
        threshold, with a strong extra term if the wall reaches the local
        boiling temperature (pressure dependent — higher line pressure
        suppresses outright vapour formation).
        """
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        cfg = self.config
        superheat = wall_temperature_k - bulk_temperature_k
        growth = 0.0
        if heater_powered and superheat > cfg.nucleation_superheat_k:
            growth = cfg.growth_rate_per_k_s * (superheat - cfg.nucleation_superheat_k)
            t_boil = float(boiling_temperature(max(pressure_pa, 5_000.0)))
            if wall_temperature_k >= t_boil:
                growth += 10.0 * cfg.growth_rate_per_k_s * (wall_temperature_k - t_boil + 1.0)
        detach = cfg.base_detach_per_s + cfg.shear_detach_per_mps_s * abs(speed_mps)
        if not heater_powered:
            detach += cfg.idle_detach_per_s
        # Logistic-style saturation: growth slows as sites fill.
        dc = growth * (1.0 - self._coverage) - detach * self._coverage
        self._coverage = min(max(self._coverage + dc * dt, 0.0), 0.999)
        return self._coverage

    def conductance_factor(self) -> float:
        """Multiplier on the clean-film conductance for current coverage."""
        cfg = self.config
        return 1.0 - self._coverage * (1.0 - cfg.vapor_conductance_fraction)

    def conductance_noise(self, dt: float) -> float:
        """Multiplicative noise sample (mean 1) from bubble churn.

        Variance scales with coverage; a clean wire returns exactly 1.
        Scaled by 1/sqrt(dt) white-noise convention so the band-limited
        power is step-size independent.
        """
        if self._coverage <= 0.0:
            return 1.0
        sigma = self.config.noise_fraction * self._coverage
        return 1.0 + sigma * self._rng.normal() * math.sqrt(min(1.0, 0.01 / dt))
