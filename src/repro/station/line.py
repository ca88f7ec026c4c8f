"""Hydraulic dynamics of the dedicated measurement line.

The line cannot jump between setpoints: pump/valve dynamics move the
bulk speed with a first-order lag, pressure follows its own (faster)
lag, and the thermal mass of the line makes temperature the slowest
state.  On top of the bulk speed, developed-pipe turbulence perturbs
the *local* speed at the sensor head (scaled by the housing's profile
smoothing).  This is the plant every meter in the rig observes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.physics.carbonate import TUSCAN_TAP_WATER, WaterChemistry
from repro.physics.turbulence import FlowNoise, FlowNoiseConfig
from repro.sensor.maf import FlowConditions

__all__ = ["LineConfig", "LineState", "WaterLine"]


@dataclass(frozen=True)
class LineConfig:
    """Physical parameters of the test line.

    Attributes
    ----------
    pipe_diameter_m:
        Inner diameter (DN50 at the Vinci station).
    speed_tau_s:
        Pump/valve first-order time constant of the bulk speed.
    pressure_tau_s:
        Pressure regulation time constant.
    temperature_tau_s:
        Thermal time constant of the water volume.
    turbulence:
        Local-fluctuation model parameters.
    chemistry:
        Water chemistry of the campaign.
    seed:
        Seed for the turbulence generator.
    """

    pipe_diameter_m: float = 0.05
    speed_tau_s: float = 1.5
    pressure_tau_s: float = 0.3
    temperature_tau_s: float = 120.0
    turbulence: FlowNoiseConfig = FlowNoiseConfig()
    chemistry: WaterChemistry = TUSCAN_TAP_WATER
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.pipe_diameter_m <= 0.0:
            raise ConfigurationError("pipe diameter must be positive")
        if min(self.speed_tau_s, self.pressure_tau_s, self.temperature_tau_s) <= 0.0:
            raise ConfigurationError("time constants must be positive")


@dataclass(frozen=True)
class LineState:
    """Bulk line state after one step.

    ``local_speed_mps`` is the turbulence-perturbed speed at the sensor
    head; ``bulk_speed_mps`` is what an averaging reference meter sees.
    """

    time_s: float
    bulk_speed_mps: float
    local_speed_mps: float
    pressure_pa: float
    temperature_k: float


class WaterLine:
    """Stateful line plant: set targets, call :meth:`step` each tick."""

    STATE = ("_time_s", "_speed", "_pressure", "_temperature", "_noise")

    def __init__(self, config: LineConfig | None = None,
                 turbulence_multiplier: float = 1.0) -> None:
        self.config = config or LineConfig()
        if turbulence_multiplier <= 0.0:
            raise ConfigurationError("turbulence multiplier must be positive")
        cfg = self.config
        noise_cfg = FlowNoiseConfig(
            intensity=cfg.turbulence.intensity * turbulence_multiplier,
            floor_mps=cfg.turbulence.floor_mps,
            integral_length_m=cfg.turbulence.integral_length_m,
            min_speed_mps=cfg.turbulence.min_speed_mps,
        )
        self._noise = FlowNoise(np.random.default_rng(cfg.seed), noise_cfg)
        self._time_s = 0.0
        self._speed = 0.0
        self._pressure = 2.0e5
        self._temperature = 288.15

    @property
    def time_s(self) -> float:
        """Line-local simulation time."""
        return self._time_s

    def jump_to(self, speed_mps: float, pressure_pa: float = 2.0e5,
                temperature_k: float = 288.15) -> None:
        """Teleport the state (fast-forward between campaign points)."""
        self._speed = speed_mps
        self._pressure = pressure_pa
        self._temperature = temperature_k

    def step(self, dt: float, speed_target_mps: float,
             pressure_target_pa: float = 2.0e5,
             temperature_target_k: float = 288.15) -> LineState:
        """Advance the plant one tick toward the targets."""
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        cfg = self.config
        self._speed += (1.0 - np.exp(-dt / cfg.speed_tau_s)) * (speed_target_mps - self._speed)
        self._pressure += (1.0 - np.exp(-dt / cfg.pressure_tau_s)) * (
            pressure_target_pa - self._pressure)
        self._temperature += (1.0 - np.exp(-dt / cfg.temperature_tau_s)) * (
            temperature_target_k - self._temperature)
        local = self._noise.perturb(self._speed, dt)
        self._time_s += dt
        return LineState(
            time_s=self._time_s,
            bulk_speed_mps=self._speed,
            local_speed_mps=local,
            pressure_pa=self._pressure,
            temperature_k=self._temperature,
        )

    def conditions(self, state: LineState) -> FlowConditions:
        """Package a line state as sensor-head conditions."""
        return FlowConditions(
            speed_mps=state.local_speed_mps,
            temperature_k=state.temperature_k,
            pressure_pa=state.pressure_pa,
            chemistry=self.config.chemistry,
        )
