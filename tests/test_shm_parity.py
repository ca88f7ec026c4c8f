"""Shared-memory backend parity: zero-copy must not change a single bit.

The acceptance bar for ``backend="shm"`` is the same as for the spawn
backend it sits beside: for any worker count, the merged traces must
equal the serial batch engine bitwise.  These tests assert that for
worker counts 1, 2, 3 and N, through every public surface
(`ShardedEngine`, `Session.run`, `run_batch`,
`characterize_meter_pool`), across `advance` windows, through a
mid-sequence pickle/unpickle (the checkpoint path), and with a worker
killed mid-run (per-shard serial fallback).
"""

import pickle

import numpy as np
import pytest

from repro.runtime import (BatchEngine, FleetSpec, RunResult, Session,
                           ShardedEngine, run_batch, shutdown_pool,
                           spawn_monitor_seeds)
from repro.runtime.faults import FAULT_ENV
from repro.station.fleet import characterize_meter_pool
from repro.station.profiles import hold, staircase
from repro.station.scenarios import build_calibrated_monitor

pytestmark = pytest.mark.parallel

N_MONITORS = 4
SEED = 777
PROFILE = hold(60.0, 1.5)


def _fleet(n=N_MONITORS, seed=SEED):
    """Fresh rigs with the same seed derivation a Session would use."""
    return [build_calibrated_monitor(seed=s, fast=True).rig
            for s in spawn_monitor_seeds(seed, n)]


def _assert_bit_identical(a, b):
    assert np.array_equal(np.asarray(a.time_s), np.asarray(b.time_s))
    for name in RunResult.STACKED_FIELDS:
        lhs = np.asarray(getattr(a, name))
        rhs = np.asarray(getattr(b, name))
        assert lhs.shape == rhs.shape, name
        assert np.array_equal(lhs, rhs), f"{name} differs bitwise"


@pytest.fixture(scope="module")
def serial_reference():
    """The serial batch-engine run every shm variant must reproduce."""
    return BatchEngine(_fleet()).run(PROFILE)


@pytest.fixture()
def fresh_pool():
    """A pool forked under the *current* environment.

    The pool is persistent and workers inherit the parent environment
    at fork time, so tests that flip env hooks (the fault injector)
    must tear the pool down before and after.
    """
    shutdown_pool()
    yield
    shutdown_pool()


@pytest.mark.parametrize("workers", [1, 2, 3, N_MONITORS])
def test_shm_matches_serial(serial_reference, workers):
    with ShardedEngine(_fleet(), workers=workers, backend="shm") as engine:
        assert engine.backend == "shm"
        _assert_bit_identical(engine.run(PROFILE), serial_reference)


def test_shm_windowed_advance_matches_one_shot(serial_reference):
    with ShardedEngine(_fleet(), workers=2, backend="shm") as engine:
        first = engine.advance(PROFILE, 700)
        second = engine.advance(PROFILE, 800)
    stitched = RunResult.concat([first, second], axis="time")
    _assert_bit_identical(stitched, serial_reference)


def test_shm_pickle_roundtrip_resumes_bit_identical(serial_reference):
    """The checkpoint path: dump pool-resident engines, reload, finish."""
    engine = ShardedEngine(_fleet(), workers=2, backend="shm")
    try:
        first = engine.advance(PROFILE, 700)
        blob = pickle.dumps(engine)
    finally:
        engine.close()
    restored = pickle.loads(blob)
    try:
        second = restored.advance(PROFILE, 800)
    finally:
        restored.close()
    stitched = RunResult.concat([first, second], axis="time")
    _assert_bit_identical(stitched, serial_reference)


def test_shm_survives_worker_crash(serial_reference, monkeypatch,
                                   fresh_pool):
    """A killed pool worker degrades that shard to in-process serial."""
    monkeypatch.setenv(FAULT_ENV, "crash:0")
    with ShardedEngine(_fleet(), workers=2, backend="shm") as engine:
        _assert_bit_identical(engine.run(PROFILE), serial_reference)


def test_shm_scheduler_accounting_matches_serial():
    serial_rigs, shm_rigs = _fleet(2), _fleet(2)
    BatchEngine(serial_rigs).run(PROFILE)
    with ShardedEngine(shm_rigs, workers=2, backend="shm") as engine:
        engine.run(PROFILE)
    for serial_rig, shm_rig in zip(serial_rigs, shm_rigs):
        assert (shm_rig.monitor.platform.scheduler.ticks
                == serial_rig.monitor.platform.scheduler.ticks)


def test_session_shm_backend_parity():
    profile = staircase([0.0, 80.0], dwell_s=1.0)
    with Session(fleet=FleetSpec.homogeneous(
            3, seed=SEED, fast_calibration=True)) as session:
        session.calibrate()
        serial = session.run(profile)
        shm = session.run(profile, workers=3, backend="shm")
    _assert_bit_identical(shm, serial)


def test_run_batch_shm_backend_parity(serial_reference):
    _assert_bit_identical(
        run_batch(_fleet(), PROFILE, workers=3, backend="shm"),
        serial_reference)


def test_characterize_meter_pool_shm_matches_spawn():
    spec = FleetSpec.homogeneous(3, seed=SEED, use_pulsed_drive=False,
                                 fast_calibration=True)
    spawn = characterize_meter_pool(spec, workers=3, backend="spawn")
    shm = characterize_meter_pool(spec, workers=3, backend="shm")
    assert shm == spawn


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_shm_matches_golden_archive_bytes(workers):
    """The golden archives gate the shm backend, byte for byte.

    Same case as ``sharded_engine.npz`` (itself byte-identical to the
    serial ``batch_engine.npz``), re-run on the shm pool — the archive
    is the parity contract, so it is compared raw-buffer to raw-buffer
    and never regenerated by this test.
    """
    from tests.golden.regen import (GOLDEN_DIR, _PROFILE, _RECORD_EVERY_N,
                                    _fleet_rigs)

    with ShardedEngine(_fleet_rigs(), workers=workers,
                       backend="shm") as engine:
        result = engine.run(_PROFILE, record_every_n=_RECORD_EVERY_N)
    with np.load(GOLDEN_DIR / "sharded_engine.npz") as archive:
        for name in ("time_s",) + RunResult.STACKED_FIELDS:
            stored = archive[name]
            fresh = np.ascontiguousarray(np.asarray(getattr(result, name)))
            assert fresh.dtype == stored.dtype, name
            assert fresh.shape == stored.shape, name
            assert fresh.tobytes() == stored.tobytes(), \
                f"{name}: shm traces drifted from the golden bytes"


def test_shm_result_views_are_read_only():
    with ShardedEngine(_fleet(2), workers=2, backend="shm") as engine:
        result = engine.run(PROFILE)
    assert not np.asarray(result.time_s).flags.writeable
    for name in RunResult.STACKED_FIELDS:
        assert not np.asarray(getattr(result, name)).flags.writeable, name
    with pytest.raises(ValueError):
        np.asarray(result.measured_mps)[0, 0] = 0.0
