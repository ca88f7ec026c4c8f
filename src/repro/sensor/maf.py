"""The complete MAF sensor die in water.

Composes the substrate models into the device of fig. 1/2:

* two heater films ("arranged twice on a chip ... adjoined closely in
  parallel") on a shared membrane, each the hot arm of a half-bridge;
* one interdigitated 2 kΩ reference shared by both half-bridges;
* flow-dependent convective coupling to the water (King's law via the
  Kramers correlation), lateral conduction into the membrane, backside
  conduction through the cavity fill;
* a thermal-wake coupling from the upstream to the downstream heater —
  the paper's direction-detection mechanism;
* bubble and fouling surface states per heater;
* housing leakage and membrane burst checks.

The electrical interface is intentionally narrow — two bridge supply
voltages in, two bridge differential voltages out — because that is all
the ISIF front-end can see.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.errors import ConfigurationError, SensorFault
from repro.physics.carbonate import TUSCAN_TAP_WATER, WaterChemistry
from repro.physics.convection import WireGeometry, film_conductance
from repro.physics.turbulence import OrnsteinUhlenbeck
from repro.sensor.bridge import WheatstoneBridge
from repro.sensor.bubbles import BubbleConfig, BubbleModel
from repro.sensor.fouling import FoulingConfig, FoulingModel
from repro.sensor.membrane import Membrane, WATER_BACKSIDE
from repro.sensor.packaging import SensorHousing
from repro.sensor.resistor import SensingResistor

__all__ = ["FlowConditions", "MAFConfig", "SensorReadout", "MAFSensor", "HEATER_A", "HEATER_B"]

#: Heater identifiers: A is upstream for positive (forward) flow.
HEATER_A = "a"
HEATER_B = "b"

#: Below this supply the heater is considered unpowered (pulsed-drive off
#: phase) for the bubble model.
POWERED_THRESHOLD_V = 0.05


@dataclass(frozen=True)
class FlowConditions:
    """Environment of the sensor head for one simulation step.

    Attributes
    ----------
    speed_mps:
        Signed local water speed [m/s]; positive = forward (A upstream).
    temperature_k:
        Bulk water temperature [K].
    pressure_pa:
        Gauge line pressure [Pa].
    chemistry:
        Bulk water chemistry (for fouling).
    """

    speed_mps: float
    temperature_k: float = 288.15
    pressure_pa: float = 2.0e5
    chemistry: WaterChemistry = TUSCAN_TAP_WATER


@dataclass(frozen=True)
class MAFConfig:
    """Static configuration of a MAF die + assembly.

    Attributes
    ----------
    geometry:
        Equivalent-cylinder geometry of each heater.
    membrane:
        Membrane stack / cavity model.
    heater_nominal_ohm / heater_tolerance_ohm:
        Rh = 50.0 ± 0.5 Ω (paper §2).
    reference_nominal_ohm / reference_tolerance_ohm:
        Rt = 2000 ± 30 Ω (paper §2).
    r_series_ohm:
        Fixed bridge resistor in series with each heater.
    reference_lag_s:
        First-order lag of the reference's tracking of water temperature.
    wake_peak_coupling:
        Peak fraction of the upstream overtemperature reaching the
        downstream heater's boundary layer.
    wake_peak_speed_mps:
        Speed at which the wake coupling peaks (rise-then-decay shape of
        calorimetric coupling).
    enable_bubbles / enable_fouling:
        Switch the surface degradation models (benches disable what they
        don't study to isolate effects).
    seed:
        Seed for all stochastic draws inside the device.
    """

    geometry: WireGeometry = field(default_factory=WireGeometry)
    membrane: Membrane = field(default_factory=Membrane)
    heater_nominal_ohm: float = 50.0
    heater_tolerance_ohm: float = 0.5
    reference_nominal_ohm: float = 2000.0
    reference_tolerance_ohm: float = 30.0
    r_series_ohm: float = 50.0
    reference_lag_s: float = 0.2
    wake_peak_coupling: float = 0.06
    wake_peak_speed_mps: float = 0.30
    bubble_config: BubbleConfig = field(default_factory=BubbleConfig)
    fouling_config: FoulingConfig = field(default_factory=FoulingConfig)
    enable_bubbles: bool = True
    enable_fouling: bool = True
    #: Working medium: "water" (the paper's application) or "air" (the
    #: die's original automotive duty, §2).  Air disables the liquid-only
    #: degradation models automatically.
    medium: str = "water"
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.heater_nominal_ohm <= 0.0 or self.reference_nominal_ohm <= 0.0:
            raise ConfigurationError("resistor nominals must be positive")
        if self.reference_lag_s <= 0.0:
            raise ConfigurationError("reference lag must be positive")
        if not 0.0 <= self.wake_peak_coupling < 1.0:
            raise ConfigurationError("wake coupling must be in [0, 1)")
        if self.wake_peak_speed_mps <= 0.0:
            raise ConfigurationError("wake peak speed must be positive")
        if self.medium not in ("water", "air"):
            raise ConfigurationError(f"unknown medium {self.medium!r}")

    def to_dict(self) -> dict:
        """Serialise to a plain nested dict (JSON-safe)."""
        return {
            "geometry": asdict(self.geometry),
            "membrane": self.membrane.to_dict(),
            "heater_nominal_ohm": self.heater_nominal_ohm,
            "heater_tolerance_ohm": self.heater_tolerance_ohm,
            "reference_nominal_ohm": self.reference_nominal_ohm,
            "reference_tolerance_ohm": self.reference_tolerance_ohm,
            "r_series_ohm": self.r_series_ohm,
            "reference_lag_s": self.reference_lag_s,
            "wake_peak_coupling": self.wake_peak_coupling,
            "wake_peak_speed_mps": self.wake_peak_speed_mps,
            "bubble_config": asdict(self.bubble_config),
            "fouling_config": asdict(self.fouling_config),
            "enable_bubbles": self.enable_bubbles,
            "enable_fouling": self.enable_fouling,
            "medium": self.medium,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MAFConfig":
        """Restore from :meth:`to_dict` output.

        Raises
        ------
        ConfigurationError
            On missing or malformed fields (the dataclass validators
            run on construction, so out-of-range values fail too).
        """
        from repro.sensor.membrane import Membrane
        try:
            return cls(
                geometry=WireGeometry(**data["geometry"]),
                membrane=Membrane.from_dict(data["membrane"]),
                heater_nominal_ohm=float(data["heater_nominal_ohm"]),
                heater_tolerance_ohm=float(data["heater_tolerance_ohm"]),
                reference_nominal_ohm=float(data["reference_nominal_ohm"]),
                reference_tolerance_ohm=float(data["reference_tolerance_ohm"]),
                r_series_ohm=float(data["r_series_ohm"]),
                reference_lag_s=float(data["reference_lag_s"]),
                wake_peak_coupling=float(data["wake_peak_coupling"]),
                wake_peak_speed_mps=float(data["wake_peak_speed_mps"]),
                bubble_config=BubbleConfig(**data["bubble_config"]),
                fouling_config=FoulingConfig(**data["fouling_config"]),
                enable_bubbles=bool(data["enable_bubbles"]),
                enable_fouling=bool(data["enable_fouling"]),
                medium=str(data["medium"]),
                seed=int(data["seed"]),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed MAFConfig image: {exc}") from exc


@dataclass(frozen=True)
class SensorReadout:
    """Electrical + diagnostic snapshot after one step.

    Only ``differential_a_v`` / ``differential_b_v`` are observable by
    the electronics; the rest is simulation ground truth used by tests
    and benches.
    """

    differential_a_v: float
    differential_b_v: float
    reference_midpoint_a_v: float
    heater_a_temperature_k: float
    heater_b_temperature_k: float
    heater_a_resistance_ohm: float
    heater_b_resistance_ohm: float
    reference_resistance_ohm: float
    heater_a_power_w: float
    heater_b_power_w: float
    bubble_coverage_a: float
    bubble_coverage_b: float
    fouling_thickness_a_m: float
    fouling_thickness_b_m: float
    supply_current_a: float


def _resolve_medium(name: str):
    """Map a config medium name to its property module (air or water)."""
    if name == "air":
        from repro.physics import air as _air
        return _air
    from repro.physics import water as _water
    return _water


class MAFSensor:
    """Stateful simulation of one MAF die + housing in the water line.

    Drive it by calling :meth:`step` once per control-loop period with
    the two bridge supply voltages and the current flow conditions.
    """

    STATE = ("_t_a", "_t_b", "_t_membrane", "_t_reference", "_failed",
             "_heater_capacity", "_membrane_capacity", "_g_lateral",
             "_g_backside", "_backside_noise", "bubbles_a", "bubbles_b",
             "fouling_a", "fouling_b", "bridge_a", "bridge_b")

    def __init__(self, config: MAFConfig | None = None,
                 housing: SensorHousing | None = None) -> None:
        self.config = config or MAFConfig()
        self.housing = housing or SensorHousing()
        rng = np.random.default_rng(self.config.seed)
        cfg = self.config
        self._medium = _resolve_medium(cfg.medium)

        self.heater_a = SensingResistor(
            cfg.heater_nominal_ohm, cfg.heater_tolerance_ohm, rng=rng)
        self.heater_b = SensingResistor(
            cfg.heater_nominal_ohm, cfg.heater_tolerance_ohm, rng=rng)
        # Interdigitated reference: one physical resistor shared by both
        # half-bridges (fig. 1, ref. [10] of the paper).
        self.reference = SensingResistor(
            cfg.reference_nominal_ohm, cfg.reference_tolerance_ohm, rng=rng)

        self.bridge_a = WheatstoneBridge(self.heater_a, self.reference,
                                         r_series_ohm=cfg.r_series_ohm)
        self.bridge_b = WheatstoneBridge(self.heater_b, self.reference,
                                         r_series_ohm=cfg.r_series_ohm)

        self.bubbles_a = BubbleModel(cfg.bubble_config, np.random.default_rng(cfg.seed + 1))
        self.bubbles_b = BubbleModel(cfg.bubble_config, np.random.default_rng(cfg.seed + 2))
        self.fouling_a = FoulingModel(cfg.fouling_config)
        self.fouling_b = FoulingModel(cfg.fouling_config)

        # Backside fluctuation noise is only present with a flooded cavity
        # ("prevents uncontrolled fluctuations on the backside").
        self._backside_noise = OrnsteinUhlenbeck(
            tau_s=0.5, sigma=0.25 if cfg.membrane.backside is WATER_BACKSIDE else 0.0,
            rng=np.random.default_rng(cfg.seed + 3))

        # Thermal state.
        t0 = 288.15
        self._t_a = t0
        self._t_b = t0
        self._t_membrane = t0
        self._t_reference = t0
        self._failed: str | None = None

        # Per-heater patch heat capacity: half of the heater region each,
        # plus the metal film itself (negligible next to the dielectric).
        self._heater_capacity = cfg.membrane.heater_region_capacity_j_per_k / 2.0
        self._membrane_capacity = cfg.membrane.rim_region_capacity_j_per_k
        self._g_lateral = cfg.membrane.lateral_conductance_w_per_k / 2.0
        self._g_backside = cfg.membrane.backside_conductance_w_per_k / 2.0

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Swap the medium module for its name (modules don't pickle)."""
        state = self.__dict__.copy()
        state["_medium"] = self.config.medium
        return state

    def __setstate__(self, state: dict) -> None:
        """Re-resolve the medium module from the pickled name."""
        self.__dict__.update(state)
        self._medium = _resolve_medium(self.config.medium)

    # -- configuration passthroughs ------------------------------------------

    def set_overtemperature(self, overtemperature_k: float,
                            ambient_k: float | None = None) -> None:
        """Trim both bridges for a constant-temperature setpoint."""
        self.bridge_a.trim_for_overtemperature(overtemperature_k, ambient_k)
        self.bridge_b.trim_for_overtemperature(overtemperature_k, ambient_k)

    @property
    def failed(self) -> str | None:
        """Failure description if the die is dead, else None."""
        return self._failed

    # -- state access -----------------------------------------------------------

    def heater_temperatures(self) -> tuple[float, float]:
        """(T_a, T_b) in kelvin — simulation ground truth."""
        return self._t_a, self._t_b

    def wetted_area_m2(self) -> float:
        """Wetted area of one heater element [m^2]."""
        return self.config.geometry.surface_area_m2

    # -- main entry point --------------------------------------------------------

    def step(self, dt: float, supply_a_v: float, supply_b_v: float,
             conditions: FlowConditions) -> SensorReadout:
        """Advance the die by ``dt`` seconds under the given drive.

        Parameters
        ----------
        dt:
            Step duration [s]; the thermal update is exact (exponential)
            for piecewise-constant inputs, so dt may exceed the heater
            time constant without loss of stability.
        supply_a_v / supply_b_v:
            Bridge supply voltages commanded by the conditioning loop.
        conditions:
            Local flow environment (already turbulence-perturbed by the
            test rig if realism is wanted).

        Raises
        ------
        SensorFault
            On membrane burst (overpressure) or if the die already failed.
        """
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        if self._failed is not None:
            raise SensorFault(self._failed)
        cfg = self.config
        if conditions.pressure_pa > cfg.membrane.burst_pressure_pa:
            self._failed = (
                f"membrane burst at {conditions.pressure_pa / 1e5:.2f} bar "
                f"(rating {cfg.membrane.burst_pressure_pa / 1e5:.2f} bar, "
                f"backside: {cfg.membrane.backside.name})"
            )
            raise SensorFault(self._failed)
        self.housing.check_pressure(conditions.pressure_pa)

        v = conditions.speed_mps
        t_fluid = conditions.temperature_k

        # Reference tracks the water with a small lag + self-heating bias.
        alpha = 1.0 - math.exp(-dt / cfg.reference_lag_s)
        p_ref = self.bridge_a.reference_power_w(supply_a_v, self.reference.resistance(self._t_reference)) \
            + self.bridge_b.reference_power_w(supply_b_v, self.reference.resistance(self._t_reference))
        # Reference sits on the bulk chip (well heat-sunk): ~30 K/W
        # spreading resistance into the silicon, so its self-heating bias
        # stays ~0.1 K even at full bridge drive.
        t_ref_target = t_fluid + 30.0 * p_ref
        self._t_reference += alpha * (t_ref_target - self._t_reference)
        rt = float(self.reference.resistance(self._t_reference))

        # Wake coupling: the downstream heater's incoming water is
        # pre-heated by the upstream heater.
        t_in_a, t_in_b = self._inlet_temperatures(v, t_fluid)

        # Film conductances including surface degradation.  The bubble
        # model needs the *absolute* local pressure for the boiling check.
        p_abs = conditions.pressure_pa + 101_325.0
        g_a = self._effective_conductance(
            self.bubbles_a, self.fouling_a, v, self._t_a, t_fluid, p_abs, dt)
        g_b = self._effective_conductance(
            self.bubbles_b, self.fouling_b, v, self._t_b, t_fluid, p_abs, dt)

        # Leakage path from the housing state.
        leak = self.housing.leakage_conductance_s()
        self.bridge_a.leakage_conductance_s = leak
        self.bridge_b.leakage_conductance_s = leak

        # Electro-thermal update, heater by heater (exact exponential step
        # given piecewise-constant power over dt).
        backside_factor = 1.0 + self._backside_noise.step(dt)
        g_back = self._g_backside * max(backside_factor, 0.1)
        rh_a = float(self.heater_a.resistance(self._t_a))
        rh_b = float(self.heater_b.resistance(self._t_b))
        p_a = self.bridge_a.heater_power_w(supply_a_v, rh_a)
        p_b = self.bridge_b.heater_power_w(supply_b_v, rh_b)

        self._t_a = self._exp_update(
            self._t_a, dt, p_a, g_a, t_in_a, g_back, t_fluid)
        self._t_b = self._exp_update(
            self._t_b, dt, p_b, g_b, t_in_b, g_back, t_fluid)

        # Membrane rim: collects lateral leakage from both heaters and
        # sheds it to the chip frame (at fluid temperature).
        g_rim_total = 2.0 * self._g_lateral + cfg.membrane.lateral_conductance_w_per_k
        t_rim_inf = (
            self._g_lateral * (self._t_a + self._t_b)
            + cfg.membrane.lateral_conductance_w_per_k * t_fluid
        ) / g_rim_total
        rho_m = math.exp(-dt * g_rim_total / self._membrane_capacity)
        self._t_membrane = t_rim_inf + (self._t_membrane - t_rim_inf) * rho_m

        # Post-update electrical readout at the new operating point.
        rh_a = float(self.heater_a.resistance(self._t_a))
        rh_b = float(self.heater_b.resistance(self._t_b))
        return SensorReadout(
            differential_a_v=self.bridge_a.differential_v(supply_a_v, rh_a, rt),
            differential_b_v=self.bridge_b.differential_v(supply_b_v, rh_b, rt),
            reference_midpoint_a_v=self.bridge_a.midpoint_voltages(
                supply_a_v, rh_a, rt)[1],
            heater_a_temperature_k=self._t_a,
            heater_b_temperature_k=self._t_b,
            heater_a_resistance_ohm=rh_a,
            heater_b_resistance_ohm=rh_b,
            reference_resistance_ohm=rt,
            heater_a_power_w=p_a,
            heater_b_power_w=p_b,
            bubble_coverage_a=self.bubbles_a.coverage,
            bubble_coverage_b=self.bubbles_b.coverage,
            fouling_thickness_a_m=self.fouling_a.thickness_m,
            fouling_thickness_b_m=self.fouling_b.thickness_m,
            supply_current_a=(
                self.bridge_a.total_supply_current_a(supply_a_v, rh_a, rt)
                + self.bridge_b.total_supply_current_a(supply_b_v, rh_b, rt)
            ),
        )

    def step_fouling(self, dt_s: float, conditions: FlowConditions,
                     duty_cycle: float = 1.0) -> None:
        """Advance only the slow fouling state by a long interval.

        Used by months-scale benches between control-loop equilibria;
        ``duty_cycle`` scales the time the wall actually sits hot
        (pulsed drive spends most of the time near bulk temperature).
        """
        if not 0.0 <= duty_cycle <= 1.0:
            raise ConfigurationError("duty cycle must be in [0, 1]")
        if not self.config.enable_fouling:
            return
        v = conditions.speed_mps
        t_fluid = conditions.temperature_k
        for fouling, t_wall in ((self.fouling_a, self._t_a), (self.fouling_b, self._t_b)):
            t_eff = t_fluid + duty_cycle * max(t_wall - t_fluid, 0.0)
            fouling.step(dt_s, conditions.chemistry, t_eff, t_fluid, v)

    # -- internals -----------------------------------------------------------------

    def _inlet_temperatures(self, v: float, t_fluid: float) -> tuple[float, float]:
        """Boundary-layer inlet temperature for each heater given the wake."""
        coupling = self._wake_coupling(abs(v))
        if v >= 0.0:  # A upstream, B downstream.
            t_in_a = t_fluid
            t_in_b = t_fluid + coupling * max(self._t_a - t_fluid, 0.0)
        else:
            t_in_b = t_fluid
            t_in_a = t_fluid + coupling * max(self._t_b - t_fluid, 0.0)
        return t_in_a, t_in_b

    def _wake_coupling(self, speed: float) -> float:
        """Rise-then-decay calorimetric coupling vs speed.

        Zero at rest (no advection), peaks at ``wake_peak_speed_mps``,
        decays ~1/v at high speed as the wake thins — the classical
        calorimetric transfer curve.  The slow decay keeps direction
        detectable across the full 0-250 cm/s range, as the paper
        reports ("the flow direction was clearly detected").
        """
        cfg = self.config
        x = speed / cfg.wake_peak_speed_mps
        return cfg.wake_peak_coupling * 2.0 * x / (1.0 + x * x)

    def _effective_conductance(self, bubbles: BubbleModel, fouling: FoulingModel,
                               v: float, t_wall: float, t_fluid: float,
                               pressure_abs_pa: float, dt: float) -> float:
        g = float(film_conductance(v, self.config.geometry, t_wall, t_fluid,
                                   medium=self._medium))
        liquid = self.config.medium == "water"
        if self.config.enable_fouling and liquid:
            g = fouling.degrade_conductance(g, self.wetted_area_m2())
        if self.config.enable_bubbles and liquid:
            powered = t_wall - t_fluid > 1.0  # wall meaningfully hot
            bubbles.step(dt, t_wall, t_fluid, pressure_abs_pa, v, powered)
            g *= bubbles.conductance_factor() * bubbles.conductance_noise(dt)
        return max(g, 1e-6)

    def _exp_update(self, t: float, dt: float, power: float,
                    g_film: float, t_in: float, g_back: float,
                    t_frame: float) -> float:
        """Exact exponential step of one heater node."""
        g_total = g_film + self._g_lateral + g_back
        t_inf = (
            power
            + g_film * t_in
            + self._g_lateral * self._t_membrane
            + g_back * t_frame
        ) / g_total
        rho = math.exp(-dt * g_total / self._heater_capacity)
        return t_inf + (t - t_inf) * rho
