"""The Wheatstone half-bridge pair driving the hot wire.

Topology (one of the two on-die half-bridges; see fig. 1 and §4):

    supply U ──┬── R_series ──●── Rh (heater, 50 Ω) ──┬── gnd
               └── R_trim ────●── Rt (reference, 2 kΩ) ┘
                           midpoints -> instrumentation amplifier

Balance holds when Rh = (R_series / R_trim) · Rt.  Because Rt sits at
fluid temperature and shares the heater's TCR, the balance point tracks
ambient: nulling the bridge keeps the heater at a *constant
overtemperature* above the water — the paper's constant-temperature
operating mode.  The trim resistor (set through an ISIF DAC-controlled
trim in the real platform) selects the overtemperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.sensor.resistor import SensingResistor

__all__ = ["WheatstoneBridge"]


@dataclass
class WheatstoneBridge:
    """Electrical model of one half-bridge pair.

    Parameters
    ----------
    heater:
        The hot-wire resistor Rh (nominal 50 Ω).
    reference:
        The ambient reference Rt (nominal 2 kΩ, interdigitated).
    r_series_ohm:
        Fixed resistor in series with the heater.  A 1:1 ratio with the
        hot heater (≈50 Ω) maximises loop gain and keeps the required
        bridge supply within the platform's 0–5 V DAC range.
    r_trim_ohm:
        Trim resistor in series with the reference; selects the balance
        ratio (overtemperature).  Use :meth:`trim_for_overtemperature`.
    leakage_conductance_s:
        Parasitic conductance [S] in parallel with the heater from wet
        packaging faults; 0 for a healthy assembly.
    """

    STATE = ("r_trim_ohm", "leakage_conductance_s")

    heater: SensingResistor
    reference: SensingResistor
    r_series_ohm: float = 50.0
    r_trim_ohm: float = 2000.0
    leakage_conductance_s: float = 0.0

    def __post_init__(self) -> None:
        if self.r_series_ohm <= 0.0 or self.r_trim_ohm <= 0.0:
            raise ConfigurationError("bridge fixed resistors must be positive")
        if self.leakage_conductance_s < 0.0:
            raise ConfigurationError("leakage conductance must be non-negative")

    # -- configuration ---------------------------------------------------------

    def trim_for_overtemperature(self, overtemperature_k: float,
                                 ambient_k: float | None = None) -> float:
        """Compute and apply the trim resistance for a CT setpoint.

        Chooses R_trim so the bridge balances when the heater sits
        ``overtemperature_k`` above ambient.  Returns the applied value.
        """
        ambient = self.reference.reference_temperature_k if ambient_k is None else ambient_k
        rh_target = float(self.heater.resistance(ambient + overtemperature_k))
        rt_ambient = float(self.reference.resistance(ambient))
        self.r_trim_ohm = self.r_series_ohm * rt_ambient / rh_target
        return self.r_trim_ohm

    def balance_resistance(self, rt_ohm: float) -> float:
        """Heater resistance [Ω] at which the bridge output nulls."""
        if rt_ohm <= 0.0:
            raise ConfigurationError("reference resistance must be positive")
        return self.r_series_ohm * rt_ohm / self.r_trim_ohm

    # -- electrical solution ---------------------------------------------------

    def _effective_heater_ohm(self, rh_ohm: float) -> float:
        """Heater with any wet-leakage path in parallel."""
        if self.leakage_conductance_s == 0.0:
            return rh_ohm
        return 1.0 / (1.0 / rh_ohm + self.leakage_conductance_s)

    def midpoint_voltages(self, supply_v: float, rh_ohm: float, rt_ohm: float) -> tuple[float, float]:
        """(measurement, reference) midpoint voltages [V]."""
        self._validate(supply_v, rh_ohm, rt_ohm)
        rh_eff = self._effective_heater_ohm(rh_ohm)
        v_meas = supply_v * rh_eff / (self.r_series_ohm + rh_eff)
        v_ref = supply_v * rt_ohm / (self.r_trim_ohm + rt_ohm)
        return v_meas, v_ref

    def differential_v(self, supply_v: float, rh_ohm: float, rt_ohm: float) -> float:
        """Bridge error voltage [V] seen by the instrumentation amplifier.

        Positive when the heater is hotter than the setpoint (Rh above
        balance), so the loop must *reduce* the supply — a negative-
        feedback sign convention the PI controller relies on.
        """
        v_meas, v_ref = self.midpoint_voltages(supply_v, rh_ohm, rt_ohm)
        return v_meas - v_ref

    def heater_current_a(self, supply_v: float, rh_ohm: float) -> float:
        """Current through the heater branch [A]."""
        self._validate(supply_v, rh_ohm, 1.0)
        rh_eff = self._effective_heater_ohm(rh_ohm)
        branch_i = supply_v / (self.r_series_ohm + rh_eff)
        if self.leakage_conductance_s == 0.0:
            return branch_i
        # Current divider between the real heater and the leakage path.
        v_mid = branch_i * rh_eff
        return v_mid / rh_ohm

    def heater_power_w(self, supply_v: float, rh_ohm: float) -> float:
        """Joule power dissipated in the heater element [W]."""
        i = self.heater_current_a(supply_v, rh_ohm)
        return i * i * rh_ohm

    def reference_power_w(self, supply_v: float, rt_ohm: float) -> float:
        """Self-heating power of the reference resistor [W].

        Must stay microscopic (< µW) or the "ambient" reading is biased;
        the 2 kΩ / R_trim divider guarantees that, and the integration
        test asserts it.
        """
        self._validate(supply_v, 1.0, rt_ohm)
        i = supply_v / (self.r_trim_ohm + rt_ohm)
        return i * i * rt_ohm

    def total_supply_current_a(self, supply_v: float, rh_ohm: float, rt_ohm: float) -> float:
        """Total current drawn from the bridge supply [A] (power budget)."""
        rh_eff = self._effective_heater_ohm(rh_ohm)
        return supply_v / (self.r_series_ohm + rh_eff) + supply_v / (self.r_trim_ohm + rt_ohm)

    @staticmethod
    def _validate(supply_v: float, rh_ohm: float, rt_ohm: float) -> None:
        if supply_v < 0.0:
            raise ConfigurationError("bridge supply must be non-negative")
        if rh_ohm <= 0.0 or rt_ohm <= 0.0:
            raise ConfigurationError("bridge resistances must be positive")
