"""Stochastic flow fluctuations seen by the sensor.

Pipe flow at the paper's test station is turbulent over most of the
0-250 cm/s range (Re_pipe of order 1e4-1e5 in a DN50 line).  The sensor
head therefore samples a fluctuating local velocity.  We model the
fluctuation as an Ornstein-Uhlenbeck (first-order Gauss-Markov) process
whose standard deviation is a turbulence intensity times the mean speed
and whose correlation time scales with the integral length of the pipe
divided by the speed — the standard low-order surrogate for streamwise
velocity fluctuations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["OrnsteinUhlenbeck", "FlowNoise"]


class OrnsteinUhlenbeck:
    """Exact-discretisation Ornstein-Uhlenbeck process.

    dx = -x/tau dt + sigma sqrt(2/tau) dW, stationary std = sigma.

    The exact update ``x' = x rho + sigma sqrt(1-rho^2) xi`` with
    ``rho = exp(-dt/tau)`` is used so the statistics are correct for any
    time step, including steps long compared to tau.
    """

    STATE = ("tau_s", "sigma", "_x", "_rng")

    def __init__(self, tau_s: float, sigma: float, rng: np.random.Generator) -> None:
        if tau_s <= 0.0:
            raise ConfigurationError("OU correlation time must be positive")
        if sigma < 0.0:
            raise ConfigurationError("OU sigma must be non-negative")
        self.tau_s = tau_s
        self.sigma = sigma
        self._rng = rng
        self._x = 0.0 if sigma == 0.0 else float(rng.normal(0.0, sigma))

    @property
    def value(self) -> float:
        """Current sample of the process."""
        return self._x

    def step(self, dt: float) -> float:
        """Advance by ``dt`` seconds and return the new sample."""
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        if self.sigma == 0.0:
            self._x = 0.0
            return 0.0
        rho = math.exp(-dt / self.tau_s)
        self._x = self._x * rho + self.sigma * math.sqrt(1.0 - rho * rho) * self._rng.normal()
        return self._x

    def retune(self, tau_s: float | None = None, sigma: float | None = None) -> None:
        """Update parameters in place (speed-dependent turbulence)."""
        if tau_s is not None:
            if tau_s <= 0.0:
                raise ConfigurationError("OU correlation time must be positive")
            self.tau_s = tau_s
        if sigma is not None:
            if sigma < 0.0:
                raise ConfigurationError("OU sigma must be non-negative")
            self.sigma = sigma


@dataclass(frozen=True)
class FlowNoiseConfig:
    """Tuning of the turbulent-fluctuation surrogate.

    Attributes
    ----------
    intensity:
        Turbulence intensity: std of the fluctuation as a fraction of the
        mean speed.  5-8 % is typical for developed pipe flow.
    floor_mps:
        Residual fluctuation at zero mean flow [m/s] (pump ripple,
        thermal plumes).
    integral_length_m:
        Integral length scale [m]; tau = L / max(v, v_min).
    min_speed_mps:
        Lower bound used when converting length scale to correlation
        time, so tau stays finite at rest.
    """

    intensity: float = 0.06
    floor_mps: float = 2.0e-3
    integral_length_m: float = 0.02
    min_speed_mps: float = 0.02


class FlowNoise:
    """Speed-dependent turbulent fluctuation generator.

    Call :meth:`perturb` once per simulation step with the commanded mean
    speed; it returns the instantaneous local speed at the sensor head.
    """

    STATE = ("config", "_ou")

    def __init__(
        self,
        rng: np.random.Generator,
        config: FlowNoiseConfig | None = None,
    ) -> None:
        self.config = config or FlowNoiseConfig()
        if not 0.0 <= self.config.intensity < 1.0:
            raise ConfigurationError("turbulence intensity must be in [0, 1)")
        self._ou = OrnsteinUhlenbeck(tau_s=1.0, sigma=0.0, rng=rng)

    def perturb(self, mean_speed_mps: float, dt: float) -> float:
        """Return the fluctuating local speed for this step [m/s].

        The sign of the mean speed is preserved; fluctuations never flip
        a strong flow's direction but can dither around zero at rest,
        exactly the regime where direction detection is hardest.
        """
        cfg = self.config
        v_mag = abs(mean_speed_mps)
        sigma = cfg.intensity * v_mag + cfg.floor_mps
        tau = cfg.integral_length_m / max(v_mag, cfg.min_speed_mps)
        self._ou.retune(tau_s=tau, sigma=sigma)
        return mean_speed_mps + self._ou.step(dt)
