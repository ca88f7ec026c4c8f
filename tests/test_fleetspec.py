"""FleetSpec/RigSpec: the one declarative fleet description.

Covers seed-derivation bit-compatibility with the classic Session
plumbing, dict round-trips (scenario tags included), the ``fleet=``
redesign of Session / MixedEngine / characterize_meter_pool, the
conflict and scenario refusals, and the removal of the 1.x per-call
build spellings.
"""

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError
from repro.runtime import FleetSpec, MixedEngine, RigSpec, RunResult, Session
from repro.station.campaign import Event, ScenarioSpec
from repro.station.fleet import characterize_meter_pool
from repro.station.profiles import hold


def _assert_bit_equal(a: RunResult, b: RunResult):
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert np.asarray(getattr(a, name)).tobytes() == \
            np.asarray(getattr(b, name)).tobytes(), name


def test_monitor_seeds_match_session_derivation():
    spec = FleetSpec.homogeneous(4, seed=99)
    children = np.random.SeedSequence(99).spawn(4)
    assert spec.monitor_seeds() == \
        [int(c.generate_state(1)[0]) for c in children]


def test_explicit_entry_seed_pins_its_slice():
    mixed = FleetSpec(rigs=(RigSpec(count=2),
                            RigSpec(count=2, seed=7)), seed=99)
    seeds = mixed.monitor_seeds()
    fleet = FleetSpec.homogeneous(4, seed=99).monitor_seeds()
    own = [int(c.generate_state(1)[0])
           for c in np.random.SeedSequence(7).spawn(2)]
    assert seeds[:2] == fleet[:2]
    assert seeds[2:] == own


def test_dict_round_trip_with_scenarios():
    spec = FleetSpec(
        rigs=(RigSpec(count=2, scenario="tank_leak", fast_calibration=True),
              RigSpec(count=1, seed=5, overtemperature_k=7.0,
                      scenario=ScenarioSpec(
                          name="custom",
                          events=(Event(kind="freeze", at_s=1.0,
                                        duration_s=0.5),)),
                      calibration_speeds_cmps=(0.0, 50.0, 120.0))),
        seed=13)
    clone = FleetSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.has_scenarios
    assert clone.without_scenarios() == \
        FleetSpec.from_dict(spec.without_scenarios().to_dict())


def test_fleet_introspection():
    spec = FleetSpec(rigs=(RigSpec(count=2), RigSpec(count=3)), seed=1)
    assert spec.n_monitors == 5
    assert len(spec.flat()) == 5
    assert not spec.has_scenarios
    assert spec.dt_s == 1.0 / spec.loop_rate_hz


def test_mixed_loop_rates_refused():
    spec = FleetSpec(rigs=(RigSpec(), RigSpec(loop_rate_hz=500.0)))
    with pytest.raises(ConfigurationError) as err:
        spec.loop_rate_hz
    assert err.value.reason == "heterogeneous"


def test_empty_and_invalid_specs_refused():
    with pytest.raises(ConfigurationError):
        FleetSpec(rigs=())
    with pytest.raises(ConfigurationError):
        FleetSpec(rigs=(object(),))
    with pytest.raises(ConfigurationError):
        RigSpec(count=0)
    with pytest.raises(ConfigurationError):
        FleetSpec.homogeneous(0)


def test_session_fleet_matches_legacy_session():
    """What ``Session(n_monitors=n, seed=s)`` spelled until 6.0 is
    ``Session(fleet=FleetSpec.homogeneous(n, seed=s))``; a bare
    ``Session()`` is the one-monitor, seed-42 default-build spec."""
    with pytest.raises(TypeError):
        Session(n_monitors=2, seed=31)
    spec = FleetSpec.homogeneous(2, seed=31)
    with Session(fleet=spec) as from_spec:
        assert from_spec._seeds == spec.monitor_seeds()
        assert (from_spec.n_monitors, from_spec.seed) == (2, 31)
    default = Session()
    assert default._fleet == FleetSpec.homogeneous(1, seed=42)
    with default:
        assert default._seeds == FleetSpec.homogeneous(
            1, seed=42).monitor_seeds()


def test_session_fleet_conflicts_refused():
    spec = FleetSpec.homogeneous(2, seed=1)
    # The fleet alias is gone (6.0), so there is nothing left to mix.
    with pytest.raises(TypeError):
        Session(n_monitors=2, fleet=spec)
    with pytest.raises(TypeError):
        Session(seed=7, fleet=spec)
    with pytest.raises(TypeError):
        Session(2, fleet=spec)
    with pytest.raises(TypeError):
        Session(fleet=spec, fast_calibration=True)  # removed in 2.0


def test_scenario_specs_refused_outside_campaign():
    tagged = FleetSpec(rigs=(RigSpec(scenario="tank_leak",
                                     fast_calibration=True),))
    with pytest.raises(ConfigurationError):
        Session(fleet=tagged)
    with pytest.raises(ConfigurationError):
        repro.run(hold(50.0, 1.0), fleet=tagged)


def test_run_batch_accepts_fleet_spec():
    """``run_batch`` is gone (5.0): a mixed FleetSpec runs through
    ``MixedEngine`` over its materialized rigs, equal to a Session."""
    profile = hold(60.0, 1.0)
    spec = FleetSpec(
        rigs=(RigSpec(fast_calibration=True),
              RigSpec(overtemperature_k=7.0, fast_calibration=True)),
        seed=5)
    batched = MixedEngine(spec.materialize()).run(profile)
    with Session(fleet=spec) as session:
        session.calibrate()
        from_session = session.run(profile)
    assert batched.n_monitors == 2
    _assert_bit_equal(batched, from_session)


def test_session_build_kwargs_removed():
    """The 1.x per-call build kwargs are gone; the spec carries them."""
    for build in ({"fast_calibration": True}, {"use_pulsed_drive": False},
                  {"loop_rate_hz": 1000.0}, {"overtemperature_k": 7.0},
                  {"output_bandwidth_hz": 0.1}, {"use_cache": False},
                  {"calibration_speeds_cmps": [0.0, 50.0]}):
        with pytest.raises(TypeError):
            Session(**build)
        with pytest.raises(TypeError):
            Session(fleet=FleetSpec.homogeneous(1, seed=1), **build)


def test_characterize_meter_pool_requires_fleet_spec():
    """The integer / ``n_meters=`` / ``seed=`` / ``fast_calibration=``
    spelling is gone: only a FleetSpec describes the pool."""
    with pytest.raises(ConfigurationError):
        characterize_meter_pool(2)
    for legacy in ({"n_meters": 2}, {"seed": 3},
                   {"fast_calibration": True}):
        with pytest.raises(TypeError):
            characterize_meter_pool(FleetSpec.homogeneous(2), **legacy)


def test_characterize_meter_pool_accepts_fleet_spec():
    spec = FleetSpec.homogeneous(2, seed=3, use_pulsed_drive=False,
                                 fast_calibration=True)
    from_spec = characterize_meter_pool(spec, duration_s=4.0, settle_s=2.0)
    # The same pool spelled entry by entry characterizes identically.
    by_entry = FleetSpec(rigs=(RigSpec(count=2, use_pulsed_drive=False,
                                       fast_calibration=True),), seed=3)
    again = characterize_meter_pool(by_entry, duration_s=4.0, settle_s=2.0)
    assert len(from_spec) == 2
    assert [(m.bias_fraction, m.noise_mps) for m in from_spec] == \
        [(m.bias_fraction, m.noise_mps) for m in again]
