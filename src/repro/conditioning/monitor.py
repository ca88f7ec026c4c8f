"""Top-level application API: a calibrated water-flow monitoring point.

This is the object a downstream user instantiates: it owns the sensor,
the platform, the CTA loop, the drive scheme and the estimator, and
yields timestamped :class:`FlowMeasurement` records — the paper's
"precise measurement water sensing equipment that can be widely diffused
all over the water distribution channels".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import CalibrationError, ConfigurationError
from repro.conditioning.calibration import FlowCalibration
from repro.conditioning.cta import CTAConfig, CTAController
from repro.conditioning.drive import DriveScheme, PulsedDrive
from repro.conditioning.flow_estimator import EstimatorConfig, FlowEstimator
from repro.isif.platform import ISIFPlatform
from repro.sensor.maf import FlowConditions, MAFConfig, MAFSensor

__all__ = ["MonitorConfig", "FlowMeasurement", "WaterFlowMonitor"]


@dataclass(frozen=True)
class MonitorConfig:
    """End-to-end monitor configuration.

    Attributes
    ----------
    loop_rate_hz:
        Control-loop rate.
    cta:
        Constant-temperature loop settings.
    output_bandwidth_hz:
        Final IIR corner (paper: 0.1 Hz).
    use_pulsed_drive:
        Pulsed drive (the paper's water solution) vs continuous DC.
    pulse_period_s / pulse_duty:
        Pulsed-drive timing.
    temperature_compensation:
        Track the fluid temperature through Rt and re-reference the
        King's-law constants before inversion (extension; bench E9).
    """

    loop_rate_hz: float = 1000.0
    cta: CTAConfig = CTAConfig()
    output_bandwidth_hz: float = 0.1
    use_pulsed_drive: bool = True
    pulse_period_s: float = 1.0
    pulse_duty: float = 0.30
    temperature_compensation: bool = False

    def __post_init__(self) -> None:
        if self.loop_rate_hz <= 0.0:
            raise ConfigurationError("loop rate must be positive")

    def to_dict(self) -> dict:
        """Serialise to a plain nested dict (JSON-safe)."""
        return {
            "loop_rate_hz": self.loop_rate_hz,
            "cta": self.cta.to_dict(),
            "output_bandwidth_hz": self.output_bandwidth_hz,
            "use_pulsed_drive": self.use_pulsed_drive,
            "pulse_period_s": self.pulse_period_s,
            "pulse_duty": self.pulse_duty,
            "temperature_compensation": self.temperature_compensation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MonitorConfig":
        """Restore from :meth:`to_dict` output.

        Raises
        ------
        ConfigurationError
            On missing or malformed fields.
        """
        try:
            return cls(
                loop_rate_hz=float(data["loop_rate_hz"]),
                cta=CTAConfig.from_dict(data["cta"]),
                output_bandwidth_hz=float(data["output_bandwidth_hz"]),
                use_pulsed_drive=bool(data["use_pulsed_drive"]),
                pulse_period_s=float(data["pulse_period_s"]),
                pulse_duty=float(data["pulse_duty"]),
                temperature_compensation=bool(
                    data["temperature_compensation"]),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed MonitorConfig image: {exc}") from exc


@dataclass(frozen=True)
class FlowMeasurement:
    """One reported measurement.

    Attributes
    ----------
    time_s:
        Monitor-local timestamp.
    speed_mps:
        Signed flow speed estimate [m/s].
    speed_cmps:
        Same in the paper's unit [cm/s].
    direction:
        +1 forward, -1 reverse, 0 undecided.
    bubble_coverage:
        Worst heater bubble coverage (diagnostic; healthy ≈ 0).
    valid:
        Whether this tick produced a fresh sample.
    """

    time_s: float
    speed_mps: float
    direction: int
    bubble_coverage: float
    valid: bool

    @property
    def speed_cmps(self) -> float:
        """Speed in the paper's unit."""
        return self.speed_mps * 100.0


class WaterFlowMonitor:
    """A complete calibrated monitoring point."""

    def __init__(self, sensor: MAFSensor, calibration: FlowCalibration,
                 config: MonitorConfig | None = None,
                 platform: ISIFPlatform | None = None,
                 drive: DriveScheme | None = None) -> None:
        self.config = config or MonitorConfig()
        self.platform = platform or ISIFPlatform.for_anemometer(
            loop_rate_hz=self.config.loop_rate_hz)
        if drive is None and self.config.use_pulsed_drive:
            drive = PulsedDrive(period_s=self.config.pulse_period_s,
                                duty=self.config.pulse_duty)
        self.controller = CTAController(sensor, self.platform,
                                        self.config.cta, drive=drive)
        self.estimator = FlowEstimator(
            self.controller, calibration,
            EstimatorConfig(
                output_bandwidth_hz=self.config.output_bandwidth_hz,
                sample_rate_hz=self.config.loop_rate_hz,
                temperature_compensation=self.config.temperature_compensation))

    @classmethod
    def from_calibration_file(cls, path: Path | str) -> "WaterFlowMonitor":
        """Rebuild a monitoring point from a stored calibration image.

        The image is ``anemos-cal/2``: the flat calibration fields plus
        a ``format`` marker and nested ``monitor`` / ``sensor`` config
        sections, so the rebuilt monitor matches the one that was
        calibrated (including the die seed).

        Raises
        ------
        CalibrationError
            If the file is not valid JSON, is not ``anemos-cal/2`` (a
            flat image from before it has no ``format``), or is missing
            required fields.
        """
        try:
            image = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise CalibrationError(
                f"calibration image is not valid JSON: {exc}") from exc
        if not isinstance(image, dict):
            raise CalibrationError("calibration image must be a JSON object")
        fmt = image.get("format")
        if fmt != "anemos-cal/2":
            raise CalibrationError(
                f"unsupported calibration image format {fmt!r} (expected "
                f"anemos-cal/2); re-run 'calibrate' to refresh it")
        try:
            config = MonitorConfig.from_dict(image["monitor"])
            sensor_cfg = MAFConfig.from_dict(image["sensor"])
        except KeyError as exc:
            raise CalibrationError(
                f"anemos-cal/2 image missing section {exc}") from exc
        calibration = FlowCalibration.from_dict(image)
        return cls(MAFSensor(sensor_cfg), calibration, config)

    @property
    def sensor(self) -> MAFSensor:
        """The attached die."""
        return self.controller.sensor

    def step(self, conditions: FlowConditions) -> FlowMeasurement:
        """One loop tick → one measurement record."""
        tel = self.controller.step(conditions)
        speed = self.estimator.update(tel)
        worst_cov = max(tel.readout.bubble_coverage_a, tel.readout.bubble_coverage_b)
        return FlowMeasurement(
            time_s=tel.time_s,
            speed_mps=speed,
            direction=self.estimator.direction.direction,
            bubble_coverage=worst_cov,
            valid=tel.sample_valid,
        )

    def measure(self, conditions: FlowConditions, duration_s: float) -> FlowMeasurement:
        """Run for a duration under fixed conditions; return the last record."""
        if duration_s <= 0.0:
            raise ConfigurationError("duration must be positive")
        steps = max(1, int(round(duration_s * self.config.loop_rate_hz)))
        last: FlowMeasurement | None = None
        for _ in range(steps):
            last = self.step(conditions)
        assert last is not None
        return last

    def record(self, conditions: FlowConditions, duration_s: float,
               every_n: int = 1) -> list[FlowMeasurement]:
        """Run and keep every ``every_n``-th record (memory control)."""
        if every_n < 1:
            raise ConfigurationError("every_n must be >= 1")
        steps = max(1, int(round(duration_s * self.config.loop_rate_hz)))
        out = []
        for i in range(steps):
            m = self.step(conditions)
            if i % every_n == 0:
                out.append(m)
        return out
