"""From loop telemetry to a flow reading.

§4: "This output signal requires further filtering (with an IIR filter
down to the bandwidth of 0.1 Hz) in order to improve the sensitivity."

Pipeline per *valid* loop sample:

1. supplies → balance heater power → conductance G = P/ΔT (firmware
   model, no free parameters);
2. calibration inversion G → |v| (fitted King's law);
3. direction detector sign;
4. the 0.1 Hz output IIR (the sensitivity/response-time trade studied
   in experiment E10).

During pulsed-drive off-phases the estimator holds its last output —
the IIR state is simply not advanced — so the reported flow does not
droop between bursts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.conditioning.calibration import FlowCalibration
from repro.conditioning.cta import CTAController, LoopTelemetry
from repro.conditioning.direction import DirectionConfig, DirectionDetector
from repro.isif.iir import OnePoleLowpass

__all__ = ["EstimatorConfig", "FlowEstimator"]


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator tuning.

    Attributes
    ----------
    output_bandwidth_hz:
        Corner of the final IIR (the paper's 0.1 Hz).
    sample_rate_hz:
        Loop rate feeding the estimator.
    use_direction:
        Whether to sign the output with the dual-heater detector.
    temperature_compensation:
        Re-reference the King's-law constants to the current fluid
        temperature (tracked through Rt) before inverting — removes most
        of the residual ambient sensitivity quantified in bench E9.
    temperature_update_every:
        Valid samples between Rt readings (the water temperature moves
        on minute scales; reading every tick would waste channel 3).
    """

    output_bandwidth_hz: float = 0.1
    sample_rate_hz: float = 1000.0
    use_direction: bool = True
    temperature_compensation: bool = False
    temperature_update_every: int = 500

    def __post_init__(self) -> None:
        if not 0.0 < self.output_bandwidth_hz < self.sample_rate_hz / 2.0:
            raise ConfigurationError("output bandwidth must be in (0, Nyquist)")


class FlowEstimator:
    """Consumes loop telemetry, produces signed flow speed [m/s]."""

    STATE = ("_primed", "_last_output", "_valid_count", "_fluid_temperature_k",
             "_iir", "direction")

    def __init__(self, controller: CTAController, calibration: FlowCalibration,
                 config: EstimatorConfig | None = None) -> None:
        self.controller = controller
        self.calibration = calibration
        self.config = config or EstimatorConfig(
            sample_rate_hz=controller.platform.loop_rate_hz)
        self._iir = OnePoleLowpass(self.config.output_bandwidth_hz,
                                   self.config.sample_rate_hz)
        self.direction = DirectionDetector(DirectionConfig(
            offset=calibration.direction_offset,
            sample_rate_hz=self.config.sample_rate_hz))
        self._primed = False
        self._last_output = 0.0
        self._valid_count = 0
        self._fluid_temperature_k: float | None = None

    @property
    def fluid_temperature_k(self) -> float | None:
        """Last tracked fluid temperature [K] (None before first read)."""
        return self._fluid_temperature_k

    def _track_fluid_temperature(self, telemetry: LoopTelemetry) -> None:
        cfg = self.config
        if self._valid_count % cfg.temperature_update_every == 0:
            rt = self.controller.read_reference_resistance(telemetry)
            if rt is not None:
                estimate = self.calibration.fluid_temperature_from_rt(rt)
                # Plausibility window for potable water; a reading outside
                # it means the bridge was mid-transient — keep the old one.
                if 274.0 < estimate < 325.0:
                    self._fluid_temperature_k = estimate
        self._valid_count += 1

    def update(self, telemetry: LoopTelemetry) -> float:
        """Process one loop tick; returns the current flow estimate [m/s].

        Invalid samples (pulsed off-phase / blanking) leave the estimate
        frozen at its last value.
        """
        if not telemetry.sample_valid:
            return self._last_output
        g = self.controller.conductance_from_supplies(
            telemetry.supply_a_v, telemetry.supply_b_v)
        fluid_t = None
        if self.config.temperature_compensation:
            self._track_fluid_temperature(telemetry)
            fluid_t = self._fluid_temperature_k
        speed = self.calibration.speed_from_conductance(
            g, fluid_temperature_k=fluid_t)
        if not self._primed:
            # Avoid the long IIR tail from a zero initial state.
            self._iir.reset(speed)
            self._primed = True
        magnitude = self._iir.step(speed)
        sign = 1.0
        if self.config.use_direction:
            claimed = self.direction.update(telemetry.supply_a_v, telemetry.supply_b_v)
            sign = float(claimed) if claimed != 0 else 1.0
        self._last_output = sign * magnitude
        return self._last_output

    @property
    def value(self) -> float:
        """Last flow estimate [m/s] (signed)."""
        return self._last_output

    def reset(self) -> None:
        """Clear filter and direction state."""
        self._iir.reset()
        self.direction.reset()
        self._primed = False
        self._last_output = 0.0
        self._valid_count = 0
        self._fluid_temperature_k = None

    def response_time_s(self, fraction: float = 0.05) -> float:
        """Settling time of the output filter to within ``fraction``."""
        return self._iir.settling_time_s(fraction)
