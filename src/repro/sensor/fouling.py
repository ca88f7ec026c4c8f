"""CaCO3 scale deposition on the heated surface (fig. 8 of the paper).

Calcite's inverse solubility makes the hot wire a preferential
crystallisation site: the reaction Ca(HCO3)2 -> CaCO3 + CO2 + H2O
(eq. (3)) runs exactly where the sensor is most sensitive to a parasitic
thermal resistance.  Deposit growth follows surface-crystallisation
kinetics driven by the wall-temperature supersaturation
(:func:`repro.physics.carbonate.scaling_driving_force`), moderated by

* the passivation layer — the paper's PECVD nitride is a poor adhesion
  substrate for calcite ("the right choice of a passivation layer
  results in a better protection against deposits");
* flow shear, which erodes loosely bound scale;
* pulsed drive, which lowers the time-averaged wall temperature.

The deposit adds a series thermal resistance delta/(k_scale * A) between
the heater film and the water, which the MAF model folds into the
effective film conductance — producing exactly the slow gain drift a
stale calibration turns into flow error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.physics.carbonate import WaterChemistry, scaling_driving_force

__all__ = ["FoulingConfig", "FoulingModel"]

#: Thermal conductivity of calcium-carbonate scale [W/(m K)].
SCALE_CONDUCTIVITY = 2.2


@dataclass(frozen=True)
class FoulingConfig:
    """Tuning of the scale-growth model.

    Attributes
    ----------
    rate_constant_m_per_s:
        Deposit thickness growth per unit driving force [m/s].  Chosen
        so an unprotected surface held ~30 K hot in hard water
        accumulates micrometres over weeks — the regime of fig. 8 —
        while a surface at bulk temperature stays clean.
    adhesion_factor:
        0..1 multiplier for how well calcite sticks: ~1 on bare oxide,
        ~0.1 on the paper's inert PECVD nitride passivation.
    erosion_per_mps_s:
        Fractional thickness removal rate per m/s of flow speed [1/( (m/s) s)].
    induction_thickness_m:
        Nucleation induction: growth below this thickness is slowed
        (clean passivation resists the very first crystallites).
    """

    rate_constant_m_per_s: float = 1.0e-13
    adhesion_factor: float = 0.10
    erosion_per_mps_s: float = 2.0e-7
    induction_thickness_m: float = 50.0e-9

    def __post_init__(self) -> None:
        if self.rate_constant_m_per_s < 0.0 or self.erosion_per_mps_s < 0.0:
            raise ConfigurationError("fouling rates must be non-negative")
        if not 0.0 <= self.adhesion_factor <= 1.0:
            raise ConfigurationError("adhesion factor must be in [0, 1]")
        if self.induction_thickness_m < 0.0:
            raise ConfigurationError("induction thickness must be non-negative")


class FoulingModel:
    """Scale-thickness state for one heater element."""

    STATE = ("_thickness_m",)

    def __init__(self, config: FoulingConfig | None = None) -> None:
        self.config = config or FoulingConfig()
        self._thickness_m = 0.0

    @property
    def thickness_m(self) -> float:
        """Current deposit thickness [m]."""
        return self._thickness_m

    def reset(self) -> None:
        """Descale (fresh sensor)."""
        self._thickness_m = 0.0

    def step(
        self,
        dt: float,
        chemistry: WaterChemistry,
        wall_temperature_k: float,
        bulk_temperature_k: float,
        speed_mps: float,
    ) -> float:
        """Advance deposit thickness by ``dt`` seconds (may be hours).

        Quasi-static: fouling evolves over days, so benches call this
        with large dt between control-loop equilibria.
        """
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        cfg = self.config
        wall_t = max(wall_temperature_k, bulk_temperature_k)
        force = float(scaling_driving_force(chemistry, wall_t, bulk_temperature_k))
        growth = cfg.rate_constant_m_per_s * cfg.adhesion_factor * force
        if self._thickness_m < cfg.induction_thickness_m and cfg.induction_thickness_m > 0.0:
            # Early crystallites struggle on the inert passivation.
            growth *= 0.2 + 0.8 * self._thickness_m / cfg.induction_thickness_m
        erosion = cfg.erosion_per_mps_s * abs(speed_mps) * self._thickness_m
        self._thickness_m = max(0.0, self._thickness_m + (growth - erosion) * dt)
        return self._thickness_m

    def thermal_resistance_k_per_w(self, wetted_area_m2: float) -> float:
        """Series thermal resistance of the deposit [K/W]."""
        if wetted_area_m2 <= 0.0:
            raise ConfigurationError("wetted area must be positive")
        return self._thickness_m / (SCALE_CONDUCTIVITY * wetted_area_m2)

    def degrade_conductance(self, clean_g_w_per_k: float, wetted_area_m2: float) -> float:
        """Effective film conductance with the deposit in series [W/K]."""
        if clean_g_w_per_k <= 0.0:
            return clean_g_w_per_k
        r_clean = 1.0 / clean_g_w_per_k
        return 1.0 / (r_clean + self.thermal_resistance_k_per_w(wetted_area_m2))
