"""MixedEngine: group-by-config sub-batching over heterogeneous fleets.

The acceptance bar is bit-exactness: every rig of a mixed fleet must
come back byte-identical to running its config group alone on a plain
:class:`BatchEngine` — serial and sharded, whole-profile ``run`` and
windowed, and across ``drop()``.  All assertions here compare ``tobytes()``.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import (BatchEngine, FleetSpec, MixedEngine, RunResult,
                           Session, ShardedEngine, config_group_key,
                           fleet_groups)
from repro.station.profiles import hold, staircase
from repro.station.scenarios import build_calibrated_monitor


def _rig(seed, **kwargs):
    return build_calibrated_monitor(seed=seed, fast=True, **kwargs).rig


def _mixed_fleet():
    """Four rigs, two config groups, interleaved in caller order."""
    return [
        _rig(11),
        _rig(12, overtemperature_k=7.0),
        _rig(13),
        _rig(14, overtemperature_k=7.0),
    ]


def _assert_rows_equal(result, row, reference, ref_row):
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        a = np.asarray(getattr(result, name))
        b = np.asarray(getattr(reference, name))
        if name != "time_s":
            a, b = a[row], b[ref_row]
        assert a.tobytes() == b.tobytes(), name


def test_config_group_key_splits_on_build_config():
    rigs = _mixed_fleet()
    keys = [config_group_key(r) for r in rigs]
    assert keys[0] == keys[2]
    assert keys[1] == keys[3]
    assert keys[0] != keys[1]
    groups = fleet_groups(rigs)
    assert list(groups.values()) == [[0, 2], [1, 3]]


def test_config_group_key_ignores_per_rig_seed():
    assert config_group_key(_rig(21)) == config_group_key(_rig(22))


@pytest.mark.parametrize("kwargs, key", [
    (dict(seed=21), "24e953ab5e89"),
    (dict(seed=22, overtemperature_k=8.0), "a0467e1b139c"),
    (dict(seed=23, use_pulsed_drive=False), "14a4efd86872"),
    (dict(seed=24, loop_rate_hz=500.0), "922c9cfdfddf"),
    (dict(seed=25, output_bandwidth_hz=0.5), "02b81a7d1cbe"),
], ids=["default", "overtemperature", "continuous", "loop-rate",
        "bandwidth"])
def test_config_group_key_is_stable(kwargs, key):
    """Group keys appear in provenance, campaign reports and the CLI, so
    their bytes are pinned across releases."""
    assert config_group_key(_rig(**kwargs)) == key


def test_fleet_groups_refuses_empty():
    with pytest.raises(ConfigurationError):
        fleet_groups([])


def test_batch_engine_names_offending_groups():
    rigs = _mixed_fleet()
    with pytest.raises(ConfigurationError) as err:
        BatchEngine(rigs)
    assert err.value.reason == "heterogeneous"
    for key in fleet_groups(rigs):
        assert key in str(err.value)


def test_mixed_run_matches_per_group_batch():
    profile = staircase([0.0, 60.0], dwell_s=1.0)
    mixed = MixedEngine(_mixed_fleet()).run(profile)
    fresh = _mixed_fleet()
    for positions in fleet_groups(fresh).values():
        alone = BatchEngine([fresh[i] for i in positions]).run(profile)
        for rank, pos in enumerate(positions):
            _assert_rows_equal(mixed, pos, alone, rank)
    # Caller-order provenance: (group key, row within the group).
    assert [p[1] for p in mixed.provenance()] == [0, 0, 1, 1]


def test_mixed_run_sharded_matches_serial():
    profile = hold(80.0, 1.5)
    serial = MixedEngine(_mixed_fleet()).run(profile)
    sharded = MixedEngine(_mixed_fleet(), workers=2).run(profile)
    for pos in range(4):
        _assert_rows_equal(sharded, pos, serial, pos)


def test_mixed_single_group_is_plain_batch():
    profile = hold(70.0, 1.0)
    rigs = [_rig(31), _rig(32)]
    mixed = MixedEngine(rigs).run(profile)
    plain = BatchEngine([_rig(31), _rig(32)]).run(profile)
    for pos in range(2):
        _assert_rows_equal(mixed, pos, plain, pos)


def test_mixed_advance_windows_match_one_shot():
    profile = staircase([0.0, 90.0], dwell_s=1.0)
    engine = MixedEngine(_mixed_fleet())
    windows = [engine.advance(profile, 700),
               engine.advance(profile, 800),
               engine.advance(profile, 500)]
    stitched = RunResult.concat(windows, axis="time")
    one_shot = MixedEngine(_mixed_fleet()).run(profile)
    for pos in range(4):
        _assert_rows_equal(stitched, pos, one_shot, pos)


def test_mixed_drop_preserves_survivor_bits():
    profile = hold(60.0, 1.0)
    engine = MixedEngine(_mixed_fleet())
    first = engine.advance(profile, 500)
    engine.drop([1])  # caller index 1 lives in the second config group
    assert engine.n_monitors == 3
    rest = engine.advance(profile, 500)

    untouched = MixedEngine(_mixed_fleet())
    ref_first = untouched.advance(profile, 500)
    ref_rest = untouched.advance(profile, 500)
    survivors = [0, 2, 3]
    for row, pos in enumerate(survivors):
        _assert_rows_equal(first, pos, ref_first, pos)
        _assert_rows_equal(rest, row, ref_rest, pos)


def test_mixed_drop_validates_indices():
    engine = MixedEngine(_mixed_fleet())
    with pytest.raises(ConfigurationError):
        engine.drop([4])
    with pytest.raises(ConfigurationError):
        engine.drop([0, 0])
    engine.drop([0, 1, 2, 3])  # emptying the fleet is allowed ...
    with pytest.raises(ConfigurationError):
        engine.advance(hold(50.0, 1.0), 100)  # ... advancing it is not


def test_mixed_sharded_run_is_one_shot():
    """Workers are fixed at construction, and ``run`` is one window: a
    sharded engine keeps advancing from its offset, like BatchEngine."""
    profile = hold(50.0, 0.5)
    with pytest.raises(TypeError):
        MixedEngine(_mixed_fleet()).run(profile, workers=2)
    engine = MixedEngine(_mixed_fleet(), workers=2)
    first = engine.run(profile)
    assert engine.offset == 500
    second = engine.advance(profile, 100)
    assert engine.offset == 600
    reference = MixedEngine(_mixed_fleet())
    ref_first = reference.run(profile)
    ref_second = reference.advance(profile, 100)
    for pos in range(4):
        _assert_rows_equal(first, pos, ref_first, pos)
        _assert_rows_equal(second, pos, ref_second, pos)


@pytest.mark.parametrize("kind", ["batch", "sharded", "mixed"])
def test_run_after_every_rig_dropped_is_refused(kind):
    """Each engine keeps its loop period, so ``run`` on an emptied fleet
    reaches ``advance`` and its typed refusal."""
    rigs = [_rig(41), _rig(42)]
    if kind == "batch":
        engine = BatchEngine(rigs)
    elif kind == "sharded":
        engine = ShardedEngine(rigs, workers=2)
    else:
        engine = MixedEngine(rigs)
    engine.drop([0, 1])
    with pytest.raises(ConfigurationError, match="dropped"):
        engine.run(hold(50.0, 0.5))


@pytest.mark.parametrize("kind", ["batch", "sharded", "mixed"])
def test_drop_index_refusals_share_one_message(kind):
    """Every engine's ``drop`` runs one index check, with one wording."""
    rigs = [_rig(41), _rig(42)]
    if kind == "batch":
        engine = BatchEngine(rigs)
    elif kind == "sharded":
        engine = ShardedEngine(rigs, workers=2)
    else:
        engine = MixedEngine(rigs)
    for bad in ([2], [-1]):
        with pytest.raises(ConfigurationError,
                           match=rf"^drop index {bad[0]} out of range "
                                 rf"for fleet of 2$"):
            engine.drop(bad)
    with pytest.raises(ConfigurationError,
                       match=r"^drop index 1 given twice$"):
        engine.drop([1, 1])


def test_config_grouping_runs_once_per_rig(monkeypatch, tmp_path):
    """Only MixedEngine groups a fleet, and it hashes one key per config
    group; engine builds behind it never hash a key."""
    import repro.runtime.mixed as mixed

    calls = []
    real = mixed.config_group_key

    def counting(rig):
        calls.append(rig)
        return real(rig)

    monkeypatch.setattr(mixed, "config_group_key", counting)
    BatchEngine([_rig(51), _rig(52), _rig(53), _rig(54)])
    assert len(calls) == 0

    profile = hold(50.0, 0.2)
    spec = FleetSpec.homogeneous(4, seed=5, fast_calibration=True)
    with Session(fleet=spec) as session:
        session.calibrate()
        calls.clear()
        session.run(profile)
    assert len(calls) == 1
    with Session(fleet=spec, checkpoint_dir=tmp_path) as session:
        session.calibrate()
        calls.clear()
        session.run(profile, workers=2)
    assert len(calls) == 1
    calls.clear()
    MixedEngine(_mixed_fleet())
    assert len(calls) == 2
