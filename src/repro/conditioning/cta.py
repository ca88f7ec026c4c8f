"""The constant-temperature anemometer closed loop (§4, fig. 5).

Per control tick:

1. the two bridge differentials are acquired through ISIF channels 0/1
   (instrument amplifier → anti-alias → ΣΔ ADC → decimation → LPF);
2. software IPs compute the error (reference subtraction — the setpoint
   is a nulled bridge) and run one PI step per bridge;
3. the drive scheme gates the PI outputs (continuous or pulsed);
4. the 12-bit thermometer DACs actuate the bridge supplies;
5. the MAF die integrates its electro-thermal state.

"the digital output of the PI controller, which represents the voltage
supplied to the two bridges, is proportional to the water flow."
The loop telemetry therefore exposes the supply voltages — they *are*
the raw measurement handed to :mod:`repro.conditioning.flow_estimator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.observability import get_registry
from repro.conditioning.drive import ContinuousDrive, DriveScheme
from repro.isif.fixed_point import QFormat
from repro.isif.pi_controller import PIConfig, PIController
from repro.isif.platform import ISIFPlatform
from repro.isif.scheduler import DEFAULT_CYCLE_COSTS, IPTask
from repro.sensor.maf import FlowConditions, MAFSensor, SensorReadout
from repro.state import state_of

__all__ = ["CTAConfig", "LoopTelemetry", "CTAController"]


def _noop_ip_step() -> None:
    """Cost-model placeholder body for the software IP tasks.

    A module-level function (not a lambda) so controllers — and the
    rigs that own them — stay picklable for the process-parallel
    sharded runtime.
    """


@dataclass(frozen=True)
class CTAConfig:
    """Loop configuration.

    Attributes
    ----------
    overtemperature_k:
        Constant-temperature setpoint above the water.  The paper uses a
        *reduced* overtemperature in water versus air; 5 K default.
    kp / ki:
        PI gains (V per V of bridge error; ki per second).
    supply_max_v:
        DAC full scale (actuator limit).
    supply_min_v:
        Minimum probing bias.  0 V is an absorbing state for a CTA loop
        (no supply → no bridge signal → no loop gain, and the residual
        AFE offset then pins the integrator at the bottom rail), so real
        bridges always keep a small bias; 0.3 V dissipates ~0.1 mW.
    startup_supply_v:
        PI preset so the loop can bootstrap quickly.
    qformat:
        Fixed-point format for the software IPs; None runs them float.
    """

    overtemperature_k: float = 5.0
    kp: float = 50.0
    ki: float = 20_000.0
    supply_max_v: float = 5.0
    supply_min_v: float = 0.3
    startup_supply_v: float = 1.0
    qformat: QFormat | None = QFormat(3, 20)

    def __post_init__(self) -> None:
        if self.overtemperature_k <= 0.0:
            raise ConfigurationError("overtemperature must be positive")
        if not 0.0 <= self.supply_min_v < self.supply_max_v:
            raise ConfigurationError("supply floor outside the DAC range")
        if not self.supply_min_v <= self.startup_supply_v <= self.supply_max_v:
            raise ConfigurationError("startup supply outside the DAC range")

    def to_dict(self) -> dict:
        """Serialise to a plain dict (JSON-safe)."""
        return {
            "overtemperature_k": self.overtemperature_k,
            "kp": self.kp,
            "ki": self.ki,
            "supply_max_v": self.supply_max_v,
            "supply_min_v": self.supply_min_v,
            "startup_supply_v": self.startup_supply_v,
            "qformat": None if self.qformat is None else
            {"int_bits": self.qformat.int_bits,
             "frac_bits": self.qformat.frac_bits},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CTAConfig":
        """Restore from :meth:`to_dict` output.

        Raises
        ------
        ConfigurationError
            On missing or malformed fields.
        """
        try:
            qf = data["qformat"]
            return cls(
                overtemperature_k=float(data["overtemperature_k"]),
                kp=float(data["kp"]),
                ki=float(data["ki"]),
                supply_max_v=float(data["supply_max_v"]),
                supply_min_v=float(data["supply_min_v"]),
                startup_supply_v=float(data["startup_supply_v"]),
                qformat=None if qf is None else
                QFormat(int(qf["int_bits"]), int(qf["frac_bits"])),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed CTAConfig image: {exc}") from exc


@dataclass(frozen=True)
class LoopTelemetry:
    """Everything the loop knows after one tick.

    ``supply_a_v`` / ``supply_b_v`` are the PI outputs (the measurement);
    ``sample_valid`` gates downstream consumers during pulsed off-phases.
    """

    time_s: float
    supply_a_v: float
    supply_b_v: float
    error_a_v: float
    error_b_v: float
    energised: bool
    sample_valid: bool
    readout: SensorReadout


class CTAController:
    """Binds a MAF die to an ISIF platform in constant-temperature mode."""

    STATE = ("_time_s", "_u_a", "_u_b", "pi_a", "pi_b")

    def __init__(self, sensor: MAFSensor, platform: ISIFPlatform,
                 config: CTAConfig | None = None,
                 drive: DriveScheme | None = None) -> None:
        self.sensor = sensor
        self.platform = platform
        self.config = config or CTAConfig()
        self.drive = drive or ContinuousDrive()
        dt = platform.dt_s
        pi_cfg = PIConfig(kp=self.config.kp, ki=self.config.ki, dt_s=dt,
                          out_min=self.config.supply_min_v,
                          out_max=self.config.supply_max_v,
                          qformat=self.config.qformat)
        self.pi_a = PIController(pi_cfg)
        self.pi_b = PIController(pi_cfg)
        self.pi_a.preset(self.config.startup_supply_v)
        self.pi_b.preset(self.config.startup_supply_v)
        self.sensor.set_overtemperature(self.config.overtemperature_k)
        self._time_s = 0.0
        self._u_a = self.config.startup_supply_v
        self._u_b = self.config.startup_supply_v
        self._register_software_ips()

    def _register_software_ips(self) -> None:
        """Account the software partition on the LEON scheduler.

        The actual arithmetic runs inside :meth:`step`; these tasks only
        model its cycle cost, so utilisation numbers stay honest.
        """
        sched = self.platform.scheduler
        costs = DEFAULT_CYCLE_COSTS
        for name in ("reference_subtract", "pi_controller"):
            for suffix in ("_a", "_b"):
                sched.register(IPTask(name=name + suffix, step=_noop_ip_step,
                                      cycles=costs[name]))

    # -- loop ---------------------------------------------------------------------

    def step(self, conditions: FlowConditions) -> LoopTelemetry:
        """Run one control tick against the live sensor."""
        dt = self.platform.dt_s
        decision = self.drive.tick(dt)

        u_cmd_a = self._u_a if decision.energise else 0.0
        u_cmd_b = self._u_b if decision.energise else 0.0
        u_app_a, u_app_b = self.platform.drive_bridges(u_cmd_a, u_cmd_b)

        readout = self.sensor.step(dt, u_app_a, u_app_b, conditions)
        meas_a, meas_b = self.platform.acquire_bridges(
            readout.differential_a_v, readout.differential_b_v)

        # Reference subtraction: the setpoint is a balanced (nulled)
        # bridge, so the error is simply the negated differential.
        err_a = -meas_a
        err_b = -meas_b
        if decision.control_active:
            self._u_a = self.pi_a.step(err_a)
            self._u_b = self.pi_b.step(err_b)
        registry = get_registry()
        if registry.enabled:
            registry.counter("conditioning.cta.ticks").inc()
            if (state_of(self.pi_a)["saturated_sign"] != 0
                    or state_of(self.pi_b)["saturated_sign"] != 0):
                registry.counter("conditioning.cta.pi_saturated_ticks").inc()
        self.platform.scheduler.tick()

        self._time_s += dt
        return LoopTelemetry(
            time_s=self._time_s,
            supply_a_v=self._u_a,
            supply_b_v=self._u_b,
            error_a_v=err_a,
            error_b_v=err_b,
            energised=decision.energise,
            sample_valid=decision.sample_valid,
            readout=readout,
        )

    def run(self, conditions: FlowConditions, duration_s: float) -> list[LoopTelemetry]:
        """Run the loop for a duration under fixed conditions."""
        if duration_s <= 0.0:
            raise ConfigurationError("duration must be positive")
        steps = max(1, int(round(duration_s * self.platform.loop_rate_hz)))
        return [self.step(conditions) for _ in range(steps)]

    def settle(self, conditions: FlowConditions, duration_s: float = 0.2) -> LoopTelemetry:
        """Run until (nominally) settled; returns the last telemetry."""
        telemetry = self.run(conditions, duration_s)
        registry = get_registry()
        if registry.enabled:
            registry.counter("conditioning.cta.settle_ticks").inc(
                len(telemetry))
        return telemetry[-1]

    # -- measurement-side helpers ---------------------------------------------------

    def balance_heater_power_w(self, supply_v: float) -> float:
        """Heater power at bridge balance for a given supply [W].

        Firmware-side model: at equilibrium Rh equals the trim-defined
        balance value, so P = U² Rh* / (Rs + Rh*)² with no free
        parameters — this converts the PI output into the King's-law
        observable.
        """
        bridge = self.sensor.bridge_a
        rh_star = bridge.balance_resistance(self.sensor.reference.nominal_ohm)
        return supply_v**2 * rh_star / (bridge.r_series_ohm + rh_star) ** 2

    def conductance_from_supplies(self, supply_a_v: float, supply_b_v: float) -> float:
        """Mean film conductance G = P/ΔT from both bridges [W/K]."""
        p_mean = 0.5 * (self.balance_heater_power_w(supply_a_v)
                        + self.balance_heater_power_w(supply_b_v))
        return p_mean / self.config.overtemperature_k

    def read_reference_resistance(self, telemetry: LoopTelemetry) -> float | None:
        """Firmware estimate of Rt [Ω] from the reference midpoint.

        Digitises the bridge-A reference-arm midpoint on spare channel 3
        (unity gain, as a driver would configure it) and solves the trim
        divider.  Returns None while the bridge is de-energised (pulsed
        off-phase) — there is no signal to read then.

        This is the input to the fluid-temperature tracking used by the
        estimator's King's-law temperature compensation.
        """
        if not telemetry.energised or telemetry.supply_a_v < 0.2:
            return None
        channel = self.platform.channels[3]
        if channel.config.afe.gain_index != 0:
            channel.registers.reg("CTRL").write_field("GAIN", 0)
            channel.apply_registers()
        # The channel chain is stateful (anti-alias + digital LPF); on
        # silicon it free-runs, so a reading is a short burst of
        # conversions, not a single isolated sample.
        v_mid = 0.0
        for _ in range(40):
            v_mid = channel.acquire(telemetry.readout.reference_midpoint_a_v)
        u = telemetry.supply_a_v
        if v_mid <= 0.0 or v_mid >= u:
            return None
        return self.sensor.bridge_a.r_trim_ohm * v_mid / (u - v_mid)
