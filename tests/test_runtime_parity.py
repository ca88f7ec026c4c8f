"""Batch-engine parity and session-lifecycle tests.

The acceptance bar for the vectorized runtime is parity with the scalar
reference path: with identical seeds, the batched traces must match the
per-sample loop to ≤1e-6 m/s.  The engine is designed to be bit-exact,
so these tests assert exact array equality (a strictly stronger check)
and the numeric tolerance would only come into play if a platform's
libm ever disagreed with itself.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SessionError
from repro.runtime import (BatchEngine, FleetSpec, RunResult, Session,
                           run_batch)
from repro.station.profiles import bidirectional_staircase, hold, staircase
from repro.station.scenarios import build_calibrated_monitor


def _parity_case(profile, n_monitors=2, seed=2024):
    with Session(fleet=FleetSpec.homogeneous(
            n_monitors, seed=seed, fast_calibration=True)) as session:
        session.calibrate()
        batched = session.run(profile, engine="batch")
        scalar = session.run(profile, engine="scalar")
    return batched, scalar


def _assert_parity(batched, scalar):
    for name in RunResult.STACKED_FIELDS:
        a = np.asarray(getattr(batched, name), dtype=float)
        b = np.asarray(getattr(scalar, name), dtype=float)
        assert a.shape == b.shape, name
        np.testing.assert_allclose(a, b, atol=1e-6, err_msg=name)
        # The design target is stronger: bit-exact.
        assert np.array_equal(a, b), f"{name} differs bitwise"


@pytest.mark.parametrize("profile", [
    hold(50.0, 3.0),
    staircase([0.0, 80.0, 200.0], dwell_s=2.0),
    bidirectional_staircase([40.0, 120.0], dwell_s=1.5),
], ids=["hold", "staircase", "bidirectional"])
def test_batch_matches_scalar(profile):
    batched, scalar = _parity_case(profile)
    _assert_parity(batched, scalar)


def test_run_batch_convenience_matches_rig_run():
    profile = hold(60.0, 2.0)
    rigs = [build_calibrated_monitor(seed=s, fast=True).rig for s in (11, 12)]
    batched = run_batch(rigs, profile)
    fresh = [build_calibrated_monitor(seed=s, fast=True).rig for s in (11, 12)]
    scalar = RunResult.from_records(
        [rig.run(profile, record_every_n=20) for rig in fresh])
    _assert_parity(batched, scalar)


def test_batch_engine_refuses_empty_fleet():
    with pytest.raises(ConfigurationError):
        BatchEngine([])


def test_batch_engine_refuses_heterogeneous_fleet():
    rig_a = build_calibrated_monitor(seed=21, fast=True).rig
    rig_b = build_calibrated_monitor(seed=22, fast=True,
                                     overtemperature_k=8.0).rig
    with pytest.raises(ConfigurationError):
        BatchEngine([rig_a, rig_b])


def test_session_unknown_engine_rejected():
    with Session(fleet=FleetSpec.homogeneous(
            1, seed=5, fast_calibration=True)) as session:
        session.calibrate()
        with pytest.raises(ConfigurationError):
            session.run(hold(50.0, 1.0), engine="quantum")


def test_session_lifecycle_enforced():
    session = Session(fleet=FleetSpec.homogeneous(
            1, seed=5, fast_calibration=True))
    with pytest.raises(SessionError):
        session.run(hold(50.0, 1.0))  # not even open
    with pytest.raises(SessionError):
        session.calibrate()  # must open first
    session.open()
    with pytest.raises(SessionError):
        session.monitors  # not calibrated yet
    handles = session.calibrate()
    assert [h.index for h in handles] == [0]
    session.close()
    assert session.state == "closed"
    with pytest.raises(SessionError):
        session.run(hold(50.0, 1.0))


def test_session_runs_are_repeatable():
    profile = hold(90.0, 2.0)
    with Session(fleet=FleetSpec.homogeneous(
            2, seed=31, fast_calibration=True)) as session:
        session.calibrate()
        first = session.run(profile)
        second = session.run(profile)
    for name in RunResult.STACKED_FIELDS:
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_run_result_trace_roundtrip():
    with Session(fleet=FleetSpec.homogeneous(
            2, seed=8, fast_calibration=True)) as session:
        session.calibrate()
        result = session.run(hold(70.0, 1.5))
    assert result.n_monitors == 2
    record = result.trace(1)
    assert np.array_equal(record.measured_mps, result.measured_mps[1])
    summary = result.summary(monitor=0)
    assert np.isfinite(summary["run.measured_mps"]["mean"])
