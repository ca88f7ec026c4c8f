"""Tests for the unified run API across Session, TestRig and fleet.

One surface: ``run(profile, *, snapshot_s=..., collect=...)`` everywhere;
the 1.x positional/keyword spellings are gone in 2.0.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import FleetSpec, RunResult, Session
from repro.runtime.session import resolve_record_every_n
from repro.station.demand import DiurnalDemand
from repro.station.fleet import MonitoredNetwork
from repro.station.network import PipeNetwork
from repro.station.profiles import hold
from repro.station.scenarios import build_calibrated_monitor


def test_resolve_record_every_n():
    assert resolve_record_every_n(1e-3, None, None) == 20
    assert resolve_record_every_n(1e-3, 0.05, None) == 50
    assert resolve_record_every_n(1e-3, None, 7) == 7
    assert resolve_record_every_n(1e-3, 1e-4, None) == 1  # floor at 1
    with pytest.raises(ConfigurationError):
        resolve_record_every_n(1e-3, 0.05, 7)  # both given: ambiguous
    with pytest.raises(ConfigurationError):
        resolve_record_every_n(1e-3, -1.0, None)


@pytest.fixture(scope="module")
def session():
    with Session(fleet=FleetSpec.homogeneous(
            1, seed=21, fast_calibration=True)) as s:
        s.calibrate()
        yield s


def test_session_run_snapshot_s_equals_record_every_n(session):
    a = session.run(hold(60.0, 1.0), snapshot_s=0.05)
    b = session.run(hold(60.0, 1.0), record_every_n=50)
    assert np.array_equal(a.time_s, b.time_s)
    assert np.array_equal(a.measured_mps, b.measured_mps)


def test_session_run_is_keyword_only(session):
    with pytest.raises(TypeError):
        session.run(hold(60.0, 0.5), "scalar", 25)
    result = session.run(hold(60.0, 0.5), engine="scalar", record_every_n=25)
    assert result.n_monitors == 1


def test_session_run_collect_summary(session):
    summary = session.run(hold(60.0, 0.5), collect="summary")
    result = session.run(hold(60.0, 0.5), collect="result")
    assert isinstance(result, RunResult)
    assert summary["run.true_speed_mps"]["mean"] == pytest.approx(
        result.summary()["run.true_speed_mps"]["mean"], rel=1e-6)
    assert np.isfinite(summary["run.measured_mps"]["mean"])
    with pytest.raises(ConfigurationError):
        session.run(hold(60.0, 0.5), collect="everything")


def test_session_run_refuses_both_cadence_spellings(session):
    with pytest.raises(ConfigurationError):
        session.run(hold(60.0, 0.5), snapshot_s=0.05, record_every_n=50)


def test_rig_run_unified_signature():
    setup = build_calibrated_monitor(seed=22, fast=True)
    rig = setup.rig
    rec = rig.run(hold(50.0, 0.5), snapshot_s=0.02)
    assert len(rec) == 25
    summary = rig.run(hold(50.0, 0.5), collect="summary")
    assert "measured_mps" in summary
    with pytest.raises(TypeError):
        rig.run(hold(50.0, 0.2), 10)  # keyword-only since 2.0
    with pytest.raises(ConfigurationError):
        rig.run(hold(50.0, 0.2), snapshot_s=0.02, record_every_n=10)
    with pytest.raises(ConfigurationError):
        rig.run(hold(50.0, 0.2), collect="nope")


def build_fleet(seed=0):
    net = PipeNetwork()
    net.add_pipe("reservoir", "A")
    net.add_pipe("A", "B", demand_m3_s=0.8e-3)
    fleet = MonitoredNetwork(net, seed=seed)
    fleet.attach_demand("B", DiurnalDemand(0.8e-3, seed=seed + 1))
    fleet.commission(hours=1.0, snapshot_s=300.0)
    return fleet


def test_fleet_run_unified_signature():
    fleet = build_fleet(seed=11)
    report = fleet.run(2.0, snapshot_s=120.0)
    assert report.snapshots == 60
    # a Profile's duration also sets the span
    report_p = fleet.run(hold(50.0, 3600.0))
    assert report_p.snapshots == 60
    summary = fleet.run(1.0, collect="summary")
    assert summary["snapshots"] == 60
    assert summary["leak_events"] == []


def test_fleet_run_deprecation_shims():
    """The 1.x ``hours=`` and positional ``snapshot_s`` shims are gone."""
    fleet = build_fleet(seed=12)
    with pytest.raises(TypeError):
        fleet.run(hours=1.0)
    with pytest.raises(TypeError):
        fleet.run(1.0, 60.0)  # snapshot_s is keyword-only
    with pytest.raises(TypeError):
        fleet.run()  # no duration at all
    with pytest.raises(ConfigurationError):
        fleet.run(1.0, collect="nope")
    assert fleet.run(1.0, snapshot_s=60.0).snapshots == 60


def test_removed_1x_surfaces_are_gone():
    """Each 1.x spelling that warned "removed in repro 2.0" is gone.

    Session.run and TestRig.run positional arguments, the
    ``concat_time`` alias and the bare summary keys; the fleet-run and
    build-kwarg spellings have their own tests above and in
    ``test_fleetspec.py``.
    """
    with Session(fleet=FleetSpec.homogeneous(
            1, seed=24, fast_calibration=True)) as s:
        s.calibrate()
        with pytest.raises(TypeError):
            s.run(hold(60.0, 0.2), "scalar")
        result = s.run(hold(60.0, 0.2))
    setup = build_calibrated_monitor(seed=24, fast=True)
    with pytest.raises(TypeError):
        setup.rig.run(hold(50.0, 0.2), 10)
    assert not hasattr(RunResult, "concat_time")
    summary = result.summary()
    assert type(summary) is dict
    with pytest.raises(KeyError):
        summary["measured_mps"]


def test_run_result_summary_metric_keys():
    with Session(fleet=FleetSpec.homogeneous(
            1, seed=23, fast_calibration=True)) as s:
        s.calibrate()
        result = s.run(hold(60.0, 0.5))
    summary = result.summary()
    assert set(summary) == {
        "run.time_s", "run.true_speed_mps", "run.reference_mps",
        "run.measured_mps", "run.direction", "run.pressure_pa",
        "run.temperature_k", "run.bubble_coverage",
    }
    # bare field names are not keys (the 1.x aliases are gone)
    assert "measured_mps" not in summary
    assert summary.get("measured_mps") is None
    with pytest.raises(KeyError):
        summary["not_a_field"]
    per_monitor = result.summary(monitor=0)
    assert "run.measured_mps" in per_monitor
