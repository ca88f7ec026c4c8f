"""Batched calibration: a fleet's §4 campaigns on one engine, byte for byte.

Every (calibration, post-campaign snapshot) record a batched campaign
resolves must equal the scalar campaign's for the same build: the same
``to_dict()``, the same snapshot leaves (arrays ``array_equal``,
generators in the same state) and the same pickle bytes, which is what
the artifact store writes.  The LRU moves, evictions and hit/miss
tallies of a batched resolution equal one-at-a-time resolution's, and
a store written either way serves the other.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import repro.observability as obs
from repro.errors import CalibrationError
from repro.observability import Tracer
from repro.runtime import FleetSpec, RigSpec, Session
from repro.state import state_of
from repro.station import scenarios
from repro.station.scenarios import (BATCH_CALIBRATION_MIN_RIGS,
                                     DEFAULT_CALIBRATION_SPEEDS_CMPS,
                                     _calibration_records,
                                     calibration_cache_stats,
                                     clear_calibration_cache)
from repro.store import ArtifactStore

SPEEDS_4 = [0.0, 50.0, 120.0, 250.0]


def _build(seed: int, **kwargs) -> dict:
    return dict(dict(seed=seed, fast=True, calibration_speeds_cmps=SPEEDS_4,
                     use_pulsed_drive=False), **kwargs)


def _scalar(kwargs: dict) -> tuple:
    """The scalar campaign's record: an uncached build never batches."""
    (record,) = _calibration_records([dict(kwargs, use_cache=False)])
    return record


def _leaves(value, path=()):
    if isinstance(value, dict):
        for key in value:
            yield from _leaves(value[key], path + (key,))
    else:
        yield path, value


def _assert_identical(got: tuple, want: tuple) -> None:
    (calibration, snapshot), (calibration0, snapshot0) = got, want
    assert calibration.to_dict() == calibration0.to_dict()
    assert pickle.dumps(calibration) == pickle.dumps(calibration0)
    leaves, leaves0 = dict(_leaves(snapshot)), dict(_leaves(snapshot0))
    assert leaves.keys() == leaves0.keys()
    for path, value in leaves.items():
        value0 = leaves0[path]
        assert type(value) is type(value0), path
        if isinstance(value, np.random.Generator):
            assert (value.bit_generator.state
                    == value0.bit_generator.state), path
        else:
            assert np.array_equal(np.asarray(value), np.asarray(value0)), path
    assert pickle.dumps(snapshot) == pickle.dumps(snapshot0)


@pytest.fixture
def tracer():
    old = obs.get_tracer()
    yield obs.set_tracer(Tracer(enabled=True))
    obs.set_tracer(old)


@pytest.fixture(autouse=True)
def _empty_lru():
    clear_calibration_cache()
    yield
    clear_calibration_cache()


# Campaign cost grows with rigs x speeds x windows; the long non-fast
# windows only run on small 4-speed groups, so the matrix stays cheap.
@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), size=st.integers(1, 3),
       eight_speeds=st.booleans(), fast=st.booleans(), hot=st.booleans())
@example(seed=5, size=3, eight_speeds=True, fast=True, hot=False)
@example(seed=9, size=2, eight_speeds=False, fast=False, hot=False)
@example(seed=13, size=3, eight_speeds=False, fast=True, hot=True)
@example(seed=17, size=1, eight_speeds=True, fast=True, hot=True)
def test_batched_records_match_the_scalar_campaign(
        seed, size, eight_speeds, fast, hot):
    assume(fast or (size <= 2 and not eight_speeds))
    speeds = (list(DEFAULT_CALIBRATION_SPEEDS_CMPS) if eight_speeds
              else SPEEDS_4)
    # 40 K grows bubbles during the campaign (E5), so the coverage and
    # churn streams are live state too.
    builds = [_build(seed + i, fast=fast, calibration_speeds_cmps=speeds,
                     overtemperature_k=40.0 if hot else 5.0)
              for i in range(size)]
    clear_calibration_cache()
    old = obs.get_tracer()
    tracer = obs.set_tracer(Tracer(enabled=True))
    try:
        records = _calibration_records(builds)
    finally:
        obs.set_tracer(old)
    # Both sides of the crossover: one engine for the group, or the
    # scalar loop rig by rig.
    spans = [(r.name, r.tags) for r in tracer.records()
             if r.name.startswith("scenarios.")]
    if size >= BATCH_CALIBRATION_MIN_RIGS:
        assert spans == [("scenarios.calibration_batch",
                          {"rigs": size, "speeds": len(speeds)})]
    else:
        assert [name for name, _ in spans] == [
            "scenarios.calibration_campaign"] * size
    for kwargs, record in zip(builds, records):
        _assert_identical(record, _scalar(kwargs))


def test_mixed_fleet_calibrates_per_group_and_matches_scalar(tracer):
    # Output bandwidth and run drive do not shape the campaign, so the
    # first two entries calibrate as one group; the 8 K entry is another.
    spec = FleetSpec(rigs=(
        RigSpec(count=2, fast_calibration=True, use_pulsed_drive=False,
                calibration_speeds_cmps=SPEEDS_4),
        RigSpec(count=1, fast_calibration=True, output_bandwidth_hz=0.5,
                calibration_speeds_cmps=SPEEDS_4),
        RigSpec(count=2, fast_calibration=True, overtemperature_k=8.0,
                calibration_speeds_cmps=SPEEDS_4)), seed=77)
    with Session(fleet=spec) as session:
        session.calibrate()
        got = [(h.calibration, state_of(h.monitor.sensor))
               for h in session.monitors]
    batches = [r.tags for r in tracer.records()
               if r.name == "scenarios.calibration_batch"]
    assert batches == [{"rigs": 3, "speeds": 4}, {"rigs": 2, "speeds": 4}]
    assert not [r for r in tracer.records()
                if r.name == "scenarios.calibration_campaign"]
    for seed, entry, record in zip(spec.monitor_seeds(), spec.flat(), got):
        _assert_identical(record,
                          _scalar(dict(seed=seed, **entry.build_kwargs())))


def test_one_span_per_batched_group_and_scalar_spans_for_the_rest(tracer):
    _calibration_records([_build(21), _build(22),
                          _build(23, overtemperature_k=8.0)])
    spans = [(r.name, r.tags) for r in tracer.records()
             if r.name.startswith("scenarios.")]
    assert spans == [
        ("scenarios.calibration_batch", {"rigs": 2, "speeds": 4}),
        ("scenarios.calibration_campaign", {"seed": 23})]


def test_lru_moves_and_tallies_match_one_at_a_time(monkeypatch):
    """A hit moves its key, a miss evicts the oldest, and a key evicted
    before its turn misses: exactly as builds resolved one by one."""
    monkeypatch.setattr(scenarios, "_CALIBRATION_CACHE_MAX", 2)
    warm = [_build(1), _build(2)]
    fleet = [_build(2), _build(3), _build(1)]

    def resolve(batched: bool):
        clear_calibration_cache()
        for kwargs in warm:
            _calibration_records([kwargs])
        if batched:
            records = _calibration_records(fleet)
        else:
            records = [_calibration_records([kwargs])[0] for kwargs in fleet]
        cache = scenarios._CALIBRATION_CACHE
        return (list(cache), [pickle.dumps(v) for v in cache.values()],
                calibration_cache_stats(), [pickle.dumps(r) for r in records])

    assert resolve(True) == resolve(False)
    assert calibration_cache_stats()["hits"] == 1
    assert calibration_cache_stats()["misses"] == 4


def test_a_key_missed_twice_is_calibrated_once(tracer):
    records = _calibration_records([_build(7), _build(7), _build(8)])
    assert records[0] is records[1]
    assert calibration_cache_stats()["hits"] == 1
    assert calibration_cache_stats()["misses"] == 2
    (batch,) = [r for r in tracer.records()
                if r.name.startswith("scenarios.")]
    assert batch.tags == {"rigs": 2, "speeds": 4}


def test_store_artifacts_are_byte_identical_and_still_hit(tmp_path):
    builds = [_build(11), _build(12)]
    one, batch = ArtifactStore(tmp_path / "one"), ArtifactStore(
        tmp_path / "batch")
    for kwargs in builds:
        _calibration_records([kwargs], one)
    clear_calibration_cache()
    _calibration_records(builds, batch)
    keys = one.keys("calibration")
    assert len(keys) == 2 and batch.keys("calibration") == keys
    for key in keys:
        name = f"{key}.pkl"
        assert ((one.root / "calibration" / name).read_bytes()
                == (batch.root / "calibration" / name).read_bytes())
    clear_calibration_cache()
    _calibration_records(builds, batch)
    assert batch.stats()["hits"] == 2


def test_bit_true_builds_keep_the_scalar_campaign(tracer):
    # The engine refuses a bit-true ADC, so builds alike in all else
    # calibrate rig by rig on the scalar loop.
    _calibration_records([_build(31, bit_true_adc=True),
                          _build(32, bit_true_adc=True)])
    spans = [(r.name, r.tags) for r in tracer.records()
             if r.name.startswith("scenarios.")]
    assert spans == [("scenarios.calibration_campaign", {"seed": 31}),
                     ("scenarios.calibration_campaign", {"seed": 32})]


def test_a_failing_group_keeps_the_records_resolved_before_it(monkeypatch):
    # The first group batches and resolves; the second (a lone 8 K
    # build, on the scalar loop) raises.
    def fail(*args, **kwargs):
        raise CalibrationError("campaign failed")

    monkeypatch.setattr(scenarios, "run_calibration", fail)
    builds = [_build(41), _build(42), _build(43, overtemperature_k=8.0)]
    with pytest.raises(CalibrationError, match="campaign failed"):
        _calibration_records(builds)
    cache = scenarios._CALIBRATION_CACHE
    assert len(cache) == 2
    assert all(value is not scenarios._PENDING for value in cache.values())
    monkeypatch.undo()
    records = _calibration_records(builds[:2])
    assert calibration_cache_stats()["hits"] == 2
    for kwargs, record in zip(builds, records):
        _assert_identical(record, _scalar(kwargs))
