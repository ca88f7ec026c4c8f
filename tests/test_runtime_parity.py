"""Batch-engine parity and session-lifecycle tests.

The acceptance bar for the vectorized runtime is parity with the scalar
reference path: with identical seeds, the batched traces must match the
per-sample loop to ≤1e-6 m/s.  The engine is designed to be bit-exact,
so these tests assert exact array equality (a strictly stronger check)
and the numeric tolerance would only come into play if a platform's
libm ever disagreed with itself.
"""

import functools
import json

import numpy as np
import pytest

import repro.station.scenarios as scenarios
from repro.cli import main
from repro.errors import ConfigurationError, SessionError
from repro.runtime import (BatchEngine, FleetSpec, MixedEngine, RunResult,
                           Session)
from repro.station.profiles import bidirectional_staircase, hold, staircase
from repro.station.scenarios import (build_calibrated_monitor,
                                     clear_calibration_cache)
from repro.store import ArtifactStore


def _scalar_oracle(spec, profile):
    """Each rig of ``spec`` through ``TestRig.run`` on a fresh build."""
    return RunResult.from_records([
        build_calibrated_monitor(seed=s, **entry.build_kwargs()).rig.run(
            profile, record_every_n=20)
        for s, entry in zip(spec.monitor_seeds(), spec.flat())])


def _parity_case(profile, n_monitors=2, seed=2024):
    spec = FleetSpec.homogeneous(n_monitors, seed=seed,
                                 fast_calibration=True)
    with Session(fleet=spec) as session:
        session.calibrate()
        batched = session.run(profile)
    return batched, _scalar_oracle(spec, profile)


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
    """``run_batch`` is gone (5.0); its one-call form is
    ``MixedEngine(rigs).run``, held to the scalar loop on fresh rigs."""
    profile = hold(60.0, 2.0)
    rigs = [build_calibrated_monitor(seed=s, fast=True).rig for s in (11, 12)]
    batched = MixedEngine(rigs).run(profile)
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
    """``Session.run(engine=)`` is gone (5.0): any engine is refused."""
    with Session(fleet=FleetSpec.homogeneous(
            1, seed=5, fast_calibration=True)) as session:
        session.calibrate()
        for engine in ("quantum", "scalar", "batch"):
            with pytest.raises(TypeError):
                session.run(hold(50.0, 1.0), engine=engine)


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


_KEPT_BUILD = dict(fast_calibration=True, use_pulsed_drive=False,
                   calibration_speeds_cmps=(0.0, 50.0, 120.0, 250.0))
_KEPT_PROFILE = staircase([0.0, 60.0], dwell_s=0.1)


@pytest.mark.parametrize("case", ["batch", "scalar", "workers2",
                                  "checkpoint", "no_cache", "cli"])
def test_calibrated_session_keeps_its_calibrations(case, tmp_path,
                                                   monkeypatch):
    """After calibrate(), runs never touch the LRU, the store or a campaign.

    The LRU is emptied right after calibrate(); each run must still
    come out bit-identical to a fresh session and to the scalar oracle
    without a single campaign or store read.  The ``scalar`` case runs
    the handles calibrate() returned through ``TestRig.run``, then the
    session itself.
    """
    calls = {"campaigns": 0, "store_gets": 0}

    def counting(func, key):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return wrapper

    original_calibrate = Session.calibrate

    def calibrate_then_forget(self):
        handles = original_calibrate(self)
        clear_calibration_cache()
        calls.update(campaigns=0, store_gets=0)
        return handles

    monkeypatch.setattr(scenarios, "run_calibration",
                        counting(scenarios.run_calibration, "campaigns"))
    monkeypatch.setattr(ArtifactStore, "get",
                        counting(ArtifactStore.get, "store_gets"))
    monkeypatch.setattr(Session, "calibrate", calibrate_then_forget)
    spec = FleetSpec.homogeneous(3, seed=77, use_cache=case != "no_cache",
                                 **_KEPT_BUILD)
    if case == "cli":
        spec_path = tmp_path / "fleet.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        out = tmp_path / "fleet.npz"
        assert main(["fleet", "--spec", str(spec_path), "--levels", "0,60",
                     "--dwell", "0.1", "--out", str(out)]) == 0
        results = [RunResult.load(out)]
    else:
        run_kwargs = {"workers2": {"workers": 2}}.get(case, {})
        checkpoint_dir = tmp_path / "ck" if case == "checkpoint" else None
        with Session(fleet=spec, checkpoint_dir=checkpoint_dir) as session:
            handles = session.calibrate()
            if case == "scalar":
                results = [RunResult.from_records([
                    handle.rig.run(_KEPT_PROFILE, record_every_n=20)
                    for handle in handles])]
            else:
                results = [session.run(_KEPT_PROFILE, **run_kwargs)]
            results.append(session.run(_KEPT_PROFILE, **run_kwargs))
    assert calls == {"campaigns": 0, "store_gets": 0}

    monkeypatch.undo()
    with Session(fleet=spec) as fresh:
        fresh.calibrate()
        reference = fresh.run(_KEPT_PROFILE)
    oracle = _scalar_oracle(spec, _KEPT_PROFILE)
    for result in results:
        _assert_parity(result, reference)
        _assert_parity(result, oracle)


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
