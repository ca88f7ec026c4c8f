"""Tier-1 guards for the paper's headline claims.

Each guard reruns one experiment of ``EXPERIMENTS.md`` at reduced
settings and asserts the paper's own band, so a physics or calibration
change cannot quietly break the reproduction.  The full experiments
stay in ``benchmarks/``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.metrics import repeatability_pct_fs, resolution_3sigma
from repro.conditioning.cta import CTAConfig, CTAController
from repro.conditioning.drive import ContinuousDrive, PulsedDrive
from repro.conditioning.flow_estimator import EstimatorConfig, FlowEstimator
from repro.errors import SensorFault
from repro.isif.platform import ISIFPlatform
from repro.runtime import FleetSpec, Session
from repro.sensor.maf import FlowConditions, MAFConfig, MAFSensor
from repro.sensor.membrane import ORGANIC_FILL, WATER_BACKSIDE, Membrane
from repro.station.line import LineConfig
from repro.station.profiles import Profile, Segment, pressure_peaks
from repro.station.scenarios import (build_calibrated_monitor,
                                     clear_calibration_cache)

#: E2: steady setpoints [cm/s], the measuring output bandwidth and the
#: paper's 0.1 Hz one, and the seconds settled / measured per setpoint.
RESOLUTION_SETPOINTS_CMPS = (5.0, 125.0, 250.0)
MEASURE_BW_HZ, PAPER_BW_HZ = 0.5, 0.1
RESOLUTION_SETTLE_S, RESOLUTION_WINDOW_S = 2.0, 10.0


def _noise_band(setup, speed_cmps: float) -> float:
    """Bench E2's band: ±3σ of the estimator output at a steady
    setpoint at ``MEASURE_BW_HZ``, scaled to the paper's 0.1 Hz by
    √(0.1/0.5) (white noise through one pole) [cm/s]."""
    controller = setup.monitor.controller
    estimator = FlowEstimator(
        controller, setup.calibration,
        EstimatorConfig(output_bandwidth_hz=MEASURE_BW_HZ,
                        sample_rate_hz=setup.monitor.config.loop_rate_hz))
    line = setup.rig.line
    v = speed_cmps * 1e-2
    line.jump_to(v)
    dt = setup.monitor.platform.dt_s
    readings = []
    for k in range(int((RESOLUTION_SETTLE_S + RESOLUTION_WINDOW_S) / dt)):
        state = line.step(dt, v)
        reading = estimator.update(controller.step(line.conditions(state)))
        if k >= int(RESOLUTION_SETTLE_S / dt):
            readings.append(reading)
    band = resolution_3sigma(np.array(readings)) * 100.0
    return band * math.sqrt(PAPER_BW_HZ / MEASURE_BW_HZ)


def test_e2_resolution_within_four_cm_per_s():
    """§5: the resolution (±3σ at the 0.1 Hz output) stays within the
    paper's ±4 cm/s upper edge across the range, worst at the top speed
    (King's-law compression), and well under 1 cm/s at 5 cm/s.

    Reduced from bench E2: three setpoints, a fast calibration, 2 s
    settled and 10 s measured per setpoint.  The paper's ±0.75 cm/s
    lower edge is not asserted: the model measures ±0.38 cm/s there
    (``EXPERIMENTS.md``), better than the paper.
    """
    setup = build_calibrated_monitor(seed=123, use_pulsed_drive=False,
                                     fast=True)
    bands = [_noise_band(setup, speed)
             for speed in RESOLUTION_SETPOINTS_CMPS]
    assert max(bands) <= 4.0, bands
    assert bands[-1] == max(bands), bands
    assert bands[0] < 1.0, bands

#: E3: the test point and the speeds it is approached from [m/s].
TARGET_MPS = 1.0
APPROACHES_MPS = (0.4, 2.0)
#: Seconds at each approach speed, then at the valve setting that
#: lands the line on the test point, then at the test point.
APPROACH_S, LANDING_S, DWELL_S = 3.0, 1.0, 4.0
#: The settled mean is taken over the dwell's last seconds.
WINDOW_S = 2.0


def _approaches() -> Profile:
    """Each approach, then a setpoint that lands the line on the target.

    The line's speed lags its setpoint first-order (``speed_tau_s``,
    1.5 s), so a plain step would leave a tail that takes ~10 s to
    fall below the sensor's repeatability (bench E3 dwells 18 s).  A
    landing setpoint held ``LANDING_S`` brings the lag exactly onto the
    target, which then holds; what remains is the sensor's own settling.
    """
    decay = math.exp(-1.0 / LineConfig().speed_tau_s)
    segments, speed = [], 0.0
    for start in APPROACHES_MPS:
        segments.append(Segment(APPROACH_S, start))
        speed = start + (speed - start) * decay ** APPROACH_S
        landing = decay ** LANDING_S
        segments.append(Segment(LANDING_S, (TARGET_MPS - speed * landing)
                                / (1.0 - landing)))
        segments.append(Segment(DWELL_S, TARGET_MPS))
        speed = TARGET_MPS
    return Profile(segments)


def test_e3_repeatability_within_one_percent_of_full_scale():
    """§5: the test point approached from below and from above reads the
    same to within ±1 % FS, on monitors calibrated as one batch.

    Reduced from bench E3: a 0.5 Hz output filter instead of 0.1 Hz, a
    landed line instead of an 18 s dwell, and two approaches, not four.
    """
    spec = FleetSpec.homogeneous(2, seed=2008, use_pulsed_drive=False,
                                 output_bandwidth_hz=0.5,
                                 fast_calibration=True)
    clear_calibration_cache()
    try:
        with Session(fleet=spec) as session:
            session.calibrate()
            result = session.run(_approaches(), record_every_n=100)
    finally:
        clear_calibration_cache()
    period = APPROACH_S + LANDING_S + DWELL_S
    ends = period * np.arange(1, len(APPROACHES_MPS) + 1)
    windows = [(result.time_s >= end - WINDOW_S) & (result.time_s < end)
               for end in ends]
    for window in windows:
        # The line sits on the test point: only the sensor varies.
        assert np.allclose(result.true_speed_mps[:, window], TARGET_MPS)
    for row in result.measured_mps:
        means = np.array([np.mean(row[window]) for window in windows])
        assert repeatability_pct_fs(means) <= 1.0
        # Every approach reads the test point (±5 cm/s).
        assert np.all(np.abs(means - TARGET_MPS) < 0.05)


#: E5: a near-stagnant line (bubbles stick) at 1 bar, held this long.
BUBBLE_LINE = FlowConditions(speed_mps=0.05, pressure_pa=1.0e5)
BUBBLE_HOLD_S = 10.0


def _bubble_case(overtemperature_k: float, pulsed: bool
                 ) -> tuple[float, float]:
    """Bench E5's case on the scalar controller: peak bubble coverage
    and the corruption (rms / mean) of the second half's conductance."""
    sensor = MAFSensor(MAFConfig(seed=55))
    platform = ISIFPlatform.for_anemometer(seed=55)
    drive = PulsedDrive(period_s=1.0, duty=0.30) if pulsed \
        else ContinuousDrive()
    controller = CTAController(
        sensor, platform, CTAConfig(overtemperature_k=overtemperature_k),
        drive=drive)
    conductance, coverage = [], []
    for _ in range(int(BUBBLE_HOLD_S / platform.dt_s)):
        tel = controller.step(BUBBLE_LINE)
        if tel.sample_valid:
            conductance.append(controller.conductance_from_supplies(
                tel.supply_a_v, tel.supply_b_v))
        coverage.append(tel.readout.bubble_coverage_a)
    g = np.array(conductance[len(conductance) // 2:])
    return max(coverage), float(np.std(g) / np.mean(g))


def test_e5_pulsed_drive_suppresses_bubbles():
    """§4: continuous drive at an air-style 40 K grows a bubble blanket
    that corrupts the reading; the paper's pulsed drive at 5 K stays
    clean.

    Reduced from bench E5: a 10 s hold instead of 90 s, and the two
    cases that carry the claim, held to the bench's own bands.
    """
    coverage, corruption = _bubble_case(40.0, pulsed=False)
    assert coverage > 0.3 and corruption > 0.03
    coverage, corruption = _bubble_case(5.0, pulsed=True)
    assert coverage < 0.02 and corruption < 0.01


#: E7: line pressure [bar] between and at the peaks, and the base dwell
#: [s].  A peak lasts a quarter dwell; against the line's 0.3 s pressure
#: lag, a 1 s dwell peaked at only 4.7 bar, so the guard dwells 2 s.
BASE_BAR, PEAK_BAR = 2.0, 6.8
PRESSURE_DWELL_S = 2.0


def test_e7_pressure_does_not_reach_the_reading():
    """§5: 0-3 bar with peaks of 7 bar.  The reading ignores pressure,
    the organic fill rates the die above 7 bar, and an unfilled die
    (rated below the base pressure) bursts at the first peak.

    Paired, unlike bench E7: two same-seed rigs ride one profile with
    the peaks and one held at the base pressure, and their readings are
    equal bit for bit.  In the model pressure reaches the sensor only
    through the boiling, burst and housing checks, so any difference
    would be a new physical path, not filter noise.
    """
    peaks = pressure_peaks(speed_cmps=100.0, base_bar=BASE_BAR,
                           peak_bar=PEAK_BAR, dwell_s=PRESSURE_DWELL_S,
                           peaks=2)
    flat = Profile([Segment(s.duration_s, s.speed_mps, BASE_BAR * 1e5,
                            s.temperature_k) for s in peaks.segments])
    ridden = build_calibrated_monitor(seed=5, fast=True)
    held = build_calibrated_monitor(seed=5, fast=True)
    with_peaks = ridden.rig.run(peaks, record_every_n=20)
    without = held.rig.run(flat, record_every_n=20)
    assert np.max(with_peaks.pressure_pa) > 5.0e5
    assert np.max(without.pressure_pa) < 3.0e5
    assert ridden.monitor.sensor.failed is None
    assert np.array_equal(with_peaks.measured_mps, without.measured_mps)

    assert Membrane(backside=ORGANIC_FILL).burst_pressure_pa > 7.0e5
    assert Membrane(backside=WATER_BACKSIDE).burst_pressure_pa < 7.0e5
    naked = MAFSensor(MAFConfig(
        seed=2, membrane=Membrane(backside=WATER_BACKSIDE)))
    first_peak = peaks.segments[1]
    with pytest.raises(SensorFault):
        naked.step(1e-3, 1.0, 1.0,
                   FlowConditions(speed_mps=first_peak.speed_mps,
                                  pressure_pa=first_peak.pressure_pa))
