"""Endress+Hauser Proline Promag 50 electromagnetic flow meter model.

The paper's reference instrument: "a commercial high resolution magnetic
water meter" with "resolution lower than ±0.5% respect to full scale".
Electromagnetic meters read the Faraday voltage of the conductive water
moving through a magnetic field — no moving parts, excellent linearity,
but a full spool piece: expensive and not hot-insertable.

Model: a small calibration gain error (within the accuracy class), white
resolution noise, and a fast first-order electrode-filter response.
Bidirectional, as the real device.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.baselines.base import FlowMeter, MeterTraits

__all__ = ["Promag50"]


class Promag50(FlowMeter):
    """Reference-grade magnetic meter.

    Parameters
    ----------
    full_scale_mps:
        Configured span (paper line: 2.5 m/s).
    accuracy_of_reading:
        Calibration-class gain error bound (±0.5 % of reading for the
        Promag 50 family).
    resolution_fraction_fs:
        1-sigma single-reading noise as a fraction of full scale — the
        "high resolution" the paper leans on; 0.05 % FS.
    response_time_s:
        Output damping of the transmitter.
    seed:
        Draw for this unit's realised gain error.
    """

    STATE = ("_gain", "_state", "_rng")

    def __init__(self, full_scale_mps: float = 2.5,
                 accuracy_of_reading: float = 0.005,
                 resolution_fraction_fs: float = 0.0005,
                 response_time_s: float = 0.1,
                 seed: int = 77) -> None:
        if full_scale_mps <= 0.0:
            raise ConfigurationError("full scale must be positive")
        if not 0.0 <= accuracy_of_reading < 0.1:
            raise ConfigurationError("accuracy class out of plausible range")
        if resolution_fraction_fs < 0.0 or response_time_s <= 0.0:
            raise ConfigurationError("noise and response time must be valid")
        self.full_scale_mps = full_scale_mps
        self.accuracy_of_reading = accuracy_of_reading
        self.resolution_fraction_fs = resolution_fraction_fs
        self.response_time_s = response_time_s
        rng = np.random.default_rng(seed)
        # A real unit sits somewhere inside its accuracy class.
        self._gain = 1.0 + float(rng.uniform(-accuracy_of_reading,
                                             accuracy_of_reading)) * 0.5
        self._rng = rng
        self._state = 0.0
        self.traits = MeterTraits(
            name="Promag 50 (magnetic)",
            cost_eur=3500.0,
            has_moving_parts=False,
            intrusive=False,
            hot_insertable=False,
        )

    def read(self, true_speed_mps: float, dt_s: float) -> float:
        if dt_s <= 0.0:
            raise ConfigurationError("dt must be positive")
        alpha = 1.0 - np.exp(-dt_s / self.response_time_s)
        self._state += alpha * (true_speed_mps * self._gain - self._state)
        noise = self.resolution_fraction_fs * self.full_scale_mps * self._rng.normal()
        return float(self._state + noise)

    def reset(self) -> None:
        self._state = 0.0
