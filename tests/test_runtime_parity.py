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
from dataclasses import replace

import numpy as np
import pytest

import repro.station.scenarios as scenarios
from repro.baselines.promag import Promag50
from repro.cli import main
from repro.conditioning.drive import DriveDecision, DriveScheme
from repro.errors import ConfigurationError, SensorFault, SessionError
from repro.isif.afe import ReadoutMode
from repro.isif.fixed_point import QFormat
from repro.isif.sigma_delta import SigmaDeltaAdc
from repro.runtime import (BatchEngine, FleetSpec, MixedEngine, RunResult,
                           Session, ShardedEngine)
from repro.sensor.maf import MAFConfig
from repro.sensor.membrane import WATER_BACKSIDE, Membrane
from repro.station.profiles import bidirectional_staircase, hold, staircase
from repro.station.scenarios import (build_calibrated_monitor,
                                     clear_calibration_cache)
from repro.store import ArtifactStore
from tests.state_parity import assert_state_parity


def _oracle_rigs(spec):
    """Freshly built scalar rigs of ``spec``, one per position."""
    return [build_calibrated_monitor(seed=s, **entry.build_kwargs()).rig
            for s, entry in zip(spec.monitor_seeds(), spec.flat())]


def _scalar_oracle(spec, profile, rigs=None):
    """Each rig of ``spec`` through ``TestRig.run`` on a fresh build
    (or on ``rigs``, kept by the caller for state checks)."""
    return RunResult.from_records([
        rig.run(profile, record_every_n=20)
        for rig in (_oracle_rigs(spec) if rigs is None else rigs)])


def _parity_case(profile, n_monitors=2, seed=2024):
    """``(session run, scalar oracle, states)``; ``states`` pairs an
    engine that ran the same profile over ``spec.materialize()`` rigs
    with the oracle's rigs, for :func:`_assert_parity`."""
    spec = FleetSpec.homogeneous(n_monitors, seed=seed,
                                 fast_calibration=True)
    with Session(fleet=spec) as session:
        session.calibrate()
        batched = session.run(profile)
    rigs, oracles = spec.materialize(), _oracle_rigs(spec)
    engine = BatchEngine(rigs)
    _assert_parity(engine.run(profile), batched)
    return batched, _scalar_oracle(spec, profile, oracles), \
        (engine, rigs, oracles)


def _assert_parity(batched, scalar, states=None):
    """Records equal bitwise; with ``states=(engine, rigs, oracles)``
    the engine's written-back rigs also equal the scalar rigs stage by
    stage (a drift the quantized records hide shows there)."""
    for name in RunResult.STACKED_FIELDS:
        a = np.asarray(getattr(batched, name), dtype=float)
        b = np.asarray(getattr(scalar, name), dtype=float)
        assert a.shape == b.shape, name
        np.testing.assert_allclose(a, b, atol=1e-6, err_msg=name)
        # The design target is stronger: bit-exact.
        assert np.array_equal(a, b), f"{name} differs bitwise"
    if states is not None:
        assert_state_parity(*states)


@pytest.mark.parametrize("profile", [
    hold(50.0, 3.0),
    staircase([0.0, 80.0, 200.0], dwell_s=2.0),
    bidirectional_staircase([40.0, 120.0], dwell_s=1.5),
], ids=["hold", "staircase", "bidirectional"])
def test_batch_matches_scalar(profile):
    batched, scalar, states = _parity_case(profile)
    _assert_parity(batched, scalar, states)


def test_batch_matches_scalar_with_flooded_backside():
    """A water-flooded cavity turns on the backside-conductance OU, the
    engine's per-chunk ``g_back`` trajectory branch; a small membrane
    window keeps its burst rating above the 2 bar line."""
    membrane = Membrane(backside=WATER_BACKSIDE, side_m=0.3e-3)
    profile = bidirectional_staircase([40.0, 120.0], dwell_s=1.0)

    def rigs():
        return [build_calibrated_monitor(
            seed=s, fast=True, use_pulsed_drive=False,
            calibration_speeds_cmps=(0.0, 50.0, 120.0, 250.0),
            sensor_config=MAFConfig(seed=s, membrane=membrane)).rig
            for s in (7, 8)]

    fleet = rigs()
    engine = BatchEngine(fleet)
    batched = engine.run(profile)
    oracles = rigs()
    scalar = RunResult.from_records([rig.run(profile) for rig in oracles])
    assert np.std(scalar.measured_mps) > 0.0
    _assert_parity(batched, scalar, (engine, fleet, oracles))


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


def _both_afes(rig, **changes):
    for ch in rig.monitor.platform.channels[:2]:
        ch.config = replace(ch.config, afe=replace(ch.config.afe, **changes))


def _scale_attr(obj, name, factor):
    setattr(obj, name, factor * getattr(obj, name))


def _fail_sensor(rig):
    rig.monitor.sensor._failed = "membrane burst"


def _set_config(obj, **changes):
    obj.config = replace(obj.config, **changes)


def _fixed_point_lpfs(rig):
    for ch in rig.monitor.platform.channels[:2]:
        ch.digital_lpf.qformat = QFormat(3, 20)


def _settling_dacs(rig):
    plat = rig.monitor.platform
    for dac in (plat.supply_dac_a, plat.supply_dac_b):
        dac.settling_time_s = 1.0e-4


class _RecalibratedPromag(Promag50):
    """A reference meter the engine does not model (not Promag50 itself)."""


def _skew_coeffs(rig):
    aa = rig.monitor.platform.channels[1].anti_alias
    aa._coeffs = [tuple(0.5 * c for c in sos) for sos in aa._coeffs]


def _skew_heater_material(rig):
    heater = rig.monitor.sensor.heater_b
    heater.material = replace(heater.material,
                              tcr_per_k=1.1 * heater.material.tcr_per_k)


class _BurstDrive(DriveScheme):
    """A drive scheme the engine does not know how to batch."""

    def tick(self, dt):
        return DriveDecision(energise=True, control_active=True,
                             sample_valid=True)

    def reset(self):
        pass

    @property
    def duty_cycle(self):
        return 1.0


#: (mutation of one fast-built rig, expected error, message pattern or
#: None where only the type is pinned).
_REFUSALS = {
    "failed-sensor": (_fail_sensor, SensorFault, "membrane burst"),
    "medium": (lambda r: _set_config(r.monitor.sensor, medium="air"),
               ConfigurationError, "medium='water' only"),
    "monitor-temperature-compensation": (
        lambda r: _set_config(r.monitor, temperature_compensation=True),
        ConfigurationError, "temperature compensation is not vectorized"),
    "estimator-temperature-compensation": (
        lambda r: _set_config(r.monitor.estimator,
                              temperature_compensation=True),
        ConfigurationError, "temperature compensation is not vectorized"),
    "afe-mode": (lambda r: _both_afes(r, mode=ReadoutMode.CHARGE),
                 ConfigurationError, "INSTRUMENT readout only"),
    "strict-afe": (lambda r: _both_afes(r, strict=True),
                   ConfigurationError, "strict AFE mode is not vectorized"),
    "bit-true-adc": (lambda r: None, ConfigurationError,
                     "bit-true sigma-delta ADC is not vectorized"),
    "fixed-point-lpf": (_fixed_point_lpfs, ConfigurationError,
                        "fixed-point digital LPF is not vectorized"),
    "dac-settling": (_settling_dacs, ConfigurationError,
                     "DAC settling dynamics are not vectorized"),
    "turbulence-floor": (lambda r: _set_config(r.line._noise, floor_mps=0.0),
                         ConfigurationError,
                         "turbulence floor must be positive"),
    "reference-meter": (
        lambda r: setattr(r, "reference", _RecalibratedPromag()),
        ConfigurationError, "Promag50 reference only"),
    "bridge-b-afe": (
        lambda r: _set_config(r.monitor.platform.channels[1], afe=replace(
            r.monitor.platform.channels[1].config.afe, bandwidth_hz=123.0)),
        ConfigurationError, None),
    "bridge-b-anti-alias": (_skew_coeffs, ConfigurationError, None),
    "bridge-b-lpf-alpha": (
        lambda r: _scale_attr(r.monitor.platform.channels[1].digital_lpf,
                              "alpha", 0.5),
        ConfigurationError, None),
    "bridge-b-adc": (
        lambda r: _scale_attr(r.monitor.platform.channels[1].adc,
                              "_thermal_rms_v", 2.0),
        ConfigurationError, None),
    "bridge-b-dac": (
        lambda r: setattr(r.monitor.platform.supply_dac_b, "vref_v", 2.5),
        ConfigurationError, None),
    "bridge-b-pi": (
        lambda r: _set_config(r.monitor.controller.pi_b,
                              kp=2.0 * r.monitor.controller.pi_b.config.kp),
        ConfigurationError, None),
    "bridge-b-heater-material": (_skew_heater_material, ConfigurationError,
                                 None),
    "bridge-b-heater-tref": (
        lambda r: _scale_attr(r.monitor.sensor.heater_b,
                              "reference_temperature_k", 1.01),
        ConfigurationError, None),
    "bridge-b-series": (
        lambda r: setattr(r.monitor.sensor.bridge_b, "r_series_ohm", 60.0),
        ConfigurationError, None),
    "unknown-drive-scheme": (
        lambda r: setattr(r.monitor.controller, "drive", _BurstDrive()),
        ConfigurationError, "unknown drive scheme"),
}


#: Cases that need a fleet: the engine refuses an unknown drive scheme
#: only once there is a shared phase to tick.
_FLEET_SIZE = {"unknown-drive-scheme": 2}

#: Cases built rather than mutated: a bit-true rig holds a real
#: SigmaDeltaAdc, which a config flag flipped after the build does not
#: swap in.
_BUILD = {"bit-true-adc": {"bit_true_adc": True, "use_pulsed_drive": False}}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_batch_engine_refusals(case):
    """Every feature the vectorized path does not reproduce, and every
    bridge-B/A asymmetry inside one rig, is refused with a typed error."""
    mutate, error, pattern = _REFUSALS[case]
    rigs = [build_calibrated_monitor(seed=31 + i, fast=True,
                                     **_BUILD.get(case, {})).rig
            for i in range(_FLEET_SIZE.get(case, 1))]
    for rig in rigs:
        mutate(rig)
    with pytest.raises(error, match=pattern):
        BatchEngine(rigs)


def test_bit_true_rig_is_refused_by_every_engine():
    """A rig with a real bit-true ADC is keyed and then refused with the
    typed error by every engine, never with an AttributeError."""
    rigs = [build_calibrated_monitor(seed=s, fast=True, bit_true_adc=True,
                                     use_pulsed_drive=False).rig
            for s in (31, 32)]
    assert isinstance(rigs[0].monitor.platform.channels[0].adc,
                      SigmaDeltaAdc)
    for make in (BatchEngine, MixedEngine,
                 lambda r: ShardedEngine(r, workers=2)):
        with pytest.raises(ConfigurationError,
                           match="bit-true sigma-delta ADC is not vectorized"):
            make(rigs)


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
