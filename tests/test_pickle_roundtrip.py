"""Pickling coverage for every public config / dataclass / live object.

The sharded runtime ships rigs to worker processes by pickling, so
picklability is part of the public contract — not an accident.  Latent
hazards this suite guards against (both found and fixed while building
the sharded runtime): lambdas stored in scheduler tasks, and module
objects stored as instance attributes (``MAFSensor._medium``).

Beyond "pickle doesn't raise", the live-object tests assert the copy
*behaves* identically: a pickled rig must produce bit-identical traces
to its original, or process sharding would silently change results.
"""

import pickle

import numpy as np
import pytest

from repro.conditioning.calibration import FlowCalibration
from repro.conditioning.cta import CTAConfig
from repro.conditioning.monitor import MonitorConfig
from repro.isif.afe import AFEConfig
from repro.isif.pi_controller import PIConfig
from repro.runtime import RunResult
from repro.sensor.maf import FlowConditions, MAFConfig
from repro.station.fleet import MeterCharacter
from repro.station.line import LineConfig
from repro.station.profiles import Profile, Segment, hold, staircase
from repro.station.scenarios import build_calibrated_monitor
from repro.station.rig import RigRecord


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("config", [
    MAFConfig(),
    MonitorConfig(),
    CTAConfig(),
    PIConfig(kp=1.0, ki=10.0, dt_s=1e-3),
    AFEConfig(),
    LineConfig(),
    MeterCharacter(),
    hold(60.0, 2.0),
    staircase([0.0, 50.0, 120.0], dwell_s=3.0),
    Segment(duration_s=1.0, speed_mps=0.5),
], ids=lambda c: type(c).__name__ if not isinstance(c, Profile)
        else "Profile")
def test_config_dataclasses_roundtrip(config):
    copy = _roundtrip(config)
    assert copy == config


def test_rig_record_and_run_result_roundtrip():
    record = RigRecord(
        time_s=np.arange(3.0),
        true_speed_mps=np.ones(3), reference_mps=np.ones(3),
        measured_mps=np.ones(3), direction=np.ones(3),
        pressure_pa=np.ones(3), temperature_k=np.ones(3),
        bubble_coverage=np.zeros(3))
    copy = _roundtrip(record)
    assert np.array_equal(copy.time_s, record.time_s)
    result = RunResult.from_records([record, record])
    copy = _roundtrip(result)
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert np.array_equal(np.asarray(getattr(copy, name)),
                              np.asarray(getattr(result, name))), name


@pytest.fixture(scope="module")
def setup():
    return build_calibrated_monitor(seed=4242, fast=True)


def test_calibration_roundtrip(setup):
    calibration = setup.calibration
    copy = _roundtrip(calibration)
    assert isinstance(copy, FlowCalibration)
    assert copy.to_dict() == calibration.to_dict()


def test_live_monitor_roundtrip_measures(setup):
    copy = _roundtrip(setup.monitor)
    m = copy.measure(FlowConditions(speed_mps=0.8), duration_s=0.3)
    assert np.isfinite(m.speed_mps)


def test_calibrated_setup_roundtrip(setup):
    copy = _roundtrip(setup)
    assert copy.calibration.to_dict() == setup.calibration.to_dict()


def test_pickled_rig_runs_bit_identically():
    # The load-bearing property for the sharded runtime: a pickled rig
    # is not just constructible, it reproduces the original bit for bit
    # (RNG streams, filter states, scheduler registrations all travel).
    profile = hold(70.0, 1.0)
    original = build_calibrated_monitor(seed=97, fast=True).rig
    copy = _roundtrip(original)
    rec_a = original.run(profile, record_every_n=20)
    rec_b = copy.run(profile, record_every_n=20)
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert np.array_equal(np.asarray(getattr(rec_a, name)),
                              np.asarray(getattr(rec_b, name))), name


def test_pickled_sensor_rebinds_medium_module():
    sensor = build_calibrated_monitor(seed=97, fast=True).monitor.sensor
    copy = _roundtrip(sensor)
    # The medium module itself is unpicklable; __getstate__ swaps it
    # for its name and __setstate__ re-resolves the module.
    import types
    assert isinstance(copy._medium, types.ModuleType)
    assert copy._medium is sensor._medium
