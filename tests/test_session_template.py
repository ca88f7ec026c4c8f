"""Every ``Session.run`` on a rewound step-0 engine.

A calibrated session builds one :class:`MixedEngine` per effective
worker count on its first run of that kind and
:meth:`~MixedEngine.rewind`-s it for every later one, instead of
assembling the fleet again — serial, durable (``checkpoint_dir``) and
parallel (``workers > 1`` over several config groups) runs alike.
Whatever ran before (other profiles, another worker count, a run that
faulted, the caller's own use of the handle rigs), every run must
be byte-identical to a new ``MixedEngine`` over freshly materialized
rigs.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.runtime.session as session_module
from repro.errors import ConfigurationError, SensorFault
from repro.runtime import (BatchEngine, FleetSpec, MixedEngine, RigSpec,
                           RunResult, Session)
from repro.station.profiles import Profile, Segment, hold, staircase

FIELDS = ("time_s",) + RunResult.STACKED_FIELDS

STAIRS = staircase([0.0, 60.0, 150.0], dwell_s=0.2)
HOLD = hold(90.0, 0.4)

SPECS = {
    "pulsed": FleetSpec.homogeneous(3, seed=23, fast_calibration=True),
    "mixed": FleetSpec(rigs=(
        RigSpec(count=2, fast_calibration=True),
        RigSpec(count=2, fast_calibration=True, overtemperature_k=7.0)),
        seed=23),
}


def _fresh(spec: FleetSpec, profile: Profile) -> RunResult:
    """The reference: a new engine over rigs materialized now."""
    return MixedEngine(spec.materialize()).run(profile)


def _assert_identical(result: RunResult, reference: RunResult) -> None:
    for name in FIELDS:
        a, b = getattr(result, name), getattr(reference, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), f"{name} differs bitwise"


@pytest.mark.parametrize("fleet", sorted(SPECS))
def test_repeated_runs_match_fresh_engines(fleet):
    """Alternating worker counts and profiles, run after run (the mixed
    fleet's ``workers=2`` runs on a template of its own)."""
    spec = SPECS[fleet]
    references = {id(profile): _fresh(spec, profile)
                  for profile in (STAIRS, HOLD)}
    with Session(fleet=spec) as session:
        session.calibrate()
        for profile, workers in [(STAIRS, None), (STAIRS, 2),
                                 (HOLD, None), (HOLD, 2),
                                 (STAIRS, None), (STAIRS, 2)]:
            result = session.run(profile, workers=workers)
            _assert_identical(result, references[id(profile)])


def test_handle_rig_runs_do_not_reach_the_session():
    """The handles are the caller's: running them changes no later run,
    and runs never replace them."""
    spec = SPECS["pulsed"]
    reference = _fresh(spec, STAIRS)
    with Session(fleet=spec) as session:
        handles = session.calibrate()
        _assert_identical(session.run(STAIRS), reference)
        handles[0].rig.run(HOLD, record_every_n=20)
        _assert_identical(session.run(STAIRS), reference)
        assert all(a is b for a, b in zip(session.monitors, handles))


def test_only_the_first_serial_run_assembles(assembled):
    spec = SPECS["pulsed"]
    with Session(fleet=spec) as session:
        session.calibrate()
        assert len(assembled) == spec.n_monitors
        session.run(HOLD)
        assert len(assembled) == 2 * spec.n_monitors
        session.run(STAIRS)
        session.run(HOLD)
        assert len(assembled) == 2 * spec.n_monitors


@pytest.fixture()
def assembled(monkeypatch):
    """The seeds ``Session`` assembles monitors for, in call order."""
    calls = []
    assemble = session_module._assemble

    def counting(*args, **kwargs):
        calls.append(kwargs["seed"])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(session_module, "_assemble", counting)
    return calls


@pytest.mark.parametrize("mode", ["serial", "durable", "workers"])
def test_every_run_mode_rewinds_one_template(mode, assembled, tmp_path):
    """Serial, durable and two-group ``workers=2`` runs each assemble
    the fleet once, for their template, and rewind it after."""
    spec = SPECS["mixed"]
    checkpoint_dir = tmp_path / "ck" if mode == "durable" else None
    workers = 2 if mode == "workers" else None
    references = {id(p): _fresh(spec, p) for p in (STAIRS, HOLD)}
    with Session(fleet=spec, checkpoint_dir=checkpoint_dir) as session:
        session.calibrate()
        assert len(assembled) == spec.n_monitors
        for profile in (STAIRS, HOLD, STAIRS):
            result = session.run(profile, workers=workers)
            _assert_identical(result, references[id(profile)])
            assert len(assembled) == 2 * spec.n_monitors
    if checkpoint_dir is not None:
        assert not list(checkpoint_dir.glob("*.ckpt"))


def test_one_group_runs_with_workers_rewind_the_template(assembled):
    """A one-group fleet stays in-process under ``workers > 1``, so it
    rewinds the serial step-0 engine; a fleet of two groups ships them
    to workers from a template of its own, rewound like any other."""
    spec = SPECS["pulsed"]
    reference = _fresh(spec, HOLD)
    with Session(fleet=spec) as session:
        session.calibrate()
        _assert_identical(session.run(HOLD, workers=2), reference)
        assert len(assembled) == 2 * spec.n_monitors
        session.run(STAIRS)
        _assert_identical(session.run(HOLD, workers=3), reference)
        assert len(assembled) == 2 * spec.n_monitors

    assembled.clear()
    spec = SPECS["mixed"]
    reference = _fresh(spec, STAIRS)
    with Session(fleet=spec) as session:
        session.calibrate()
        for _ in range(3):
            _assert_identical(session.run(STAIRS, workers=2), reference)
        assert len(assembled) == 2 * spec.n_monitors


def test_a_faulted_run_leaves_no_state_behind():
    """Line pressure above the 10 bar housing rating raises partway
    through; the next run starts from step 0 all the same."""
    spec = SPECS["pulsed"]
    overpressure = Profile([Segment(0.2, 0.6),
                            Segment(3.0, 0.6, pressure_pa=20.0e5)])
    with Session(fleet=spec) as fresh:
        fresh.calibrate()
        reference = fresh.run(STAIRS)
    with Session(fleet=spec) as session:
        session.calibrate()
        with pytest.raises(SensorFault):
            session.run(overpressure)
        _assert_identical(session.run(STAIRS), reference)
        with pytest.raises(SensorFault):
            session.run(overpressure)
        _assert_identical(session.run(STAIRS), reference)


def test_batch_engine_rewind_restores_dropped_rows():
    spec = SPECS["pulsed"]
    reference = BatchEngine(spec.materialize()).run(STAIRS)
    engine = BatchEngine(spec.materialize())
    engine.advance(STAIRS, 150)
    engine.drop([1])
    assert engine.advance(STAIRS, 50).n_monitors == 2
    engine.rewind()
    assert engine.offset == 0
    _assert_identical(engine.run(STAIRS), reference)


def test_mixed_engine_rewind_restores_dropped_groups():
    spec = SPECS["mixed"]
    reference = _fresh(spec, STAIRS)
    engine = MixedEngine(spec.materialize())
    engine.advance(STAIRS, 100)
    engine.drop([2, 3])
    assert len(engine.groups) == 1
    engine.rewind()
    assert engine.offset == 0 and engine.n_monitors == 4
    _assert_identical(engine.run(STAIRS), reference)


def test_rewind_refusals():
    """Engines without a step-0 state to return to refuse, typed.

    Config groups that run as worker jobs rewind to their first blob,
    even after advancing and dropping rows; a job engine restored from
    a pickle has no such blob and refuses.
    """
    spec = SPECS["mixed"]
    reference = _fresh(spec, STAIRS)
    jobs = MixedEngine(spec.materialize(), workers=2)
    jobs.advance(STAIRS, 100)
    jobs.drop([0, 3])
    assert jobs.advance(STAIRS, 50).n_monitors == 2
    jobs.rewind()
    assert jobs.offset == 0 and jobs.n_monitors == 4
    _assert_identical(jobs.run(STAIRS), reference)
    rigs = SPECS["pulsed"].materialize()
    for engine in (BatchEngine(rigs), MixedEngine(rigs),
                   MixedEngine(spec.materialize(), workers=2)):
        restored = pickle.loads(pickle.dumps(engine))
        with pytest.raises(ConfigurationError) as unpickled:
            restored.rewind()
        assert unpickled.value.reason == "rewind"
    for group in restored._groups:  # each restored job refuses too
        with pytest.raises(ConfigurationError) as job:
            group.engine.rewind()
        assert job.value.reason == "rewind"
    engine = BatchEngine(rigs)
    engine.advance(HOLD, 10)
    engine.write_back()
    with pytest.raises(ConfigurationError) as written:
        engine.rewind()
    assert written.value.reason == "rewind"
