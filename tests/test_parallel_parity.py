"""Sharded-runtime parity: process pools must not change a single bit.

The acceptance bar for :mod:`repro.runtime.parallel` is *exact* parity
with the serial batch engine: for any shard count and any worker
scheduling, the merged traces must equal the serial run bitwise.  These
tests assert that for shard counts 1, 2, 3 and N (one rig per worker),
through every public surface (`ShardedEngine`, `Session.run(workers=)`,
`run_batch(workers=)`), and with a worker crash injected mid-run.
"""

import numpy as np
import pytest

from repro.runtime import (BatchEngine, FleetSpec, RunResult, Session,
                           ShardedEngine, run_batch, spawn_monitor_seeds)
from repro.runtime.faults import FAULT_ENV
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
    """The serial batch-engine run every sharded variant must reproduce."""
    return BatchEngine(_fleet()).run(PROFILE)


@pytest.mark.parametrize("workers", [1, 2, 3, N_MONITORS])
def test_sharded_matches_serial(serial_reference, workers):
    engine = ShardedEngine(_fleet(), workers=workers)
    assert engine.workers == workers
    _assert_bit_identical(engine.run(PROFILE), serial_reference)


def test_sharded_survives_worker_crash(serial_reference, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "crash:0")
    engine = ShardedEngine(_fleet(), workers=2, max_retries=1)
    _assert_bit_identical(engine.run(PROFILE), serial_reference)


def test_sharded_scheduler_accounting_matches_serial():
    serial_rigs, sharded_rigs = _fleet(2), _fleet(2)
    BatchEngine(serial_rigs).run(PROFILE)
    ShardedEngine(sharded_rigs, workers=2).run(PROFILE)
    for serial_rig, sharded_rig in zip(serial_rigs, sharded_rigs):
        assert (sharded_rig.monitor.platform.scheduler.ticks
                == serial_rig.monitor.platform.scheduler.ticks)


def test_session_workers_parity():
    profile = staircase([0.0, 80.0], dwell_s=1.0)
    with Session(fleet=FleetSpec.homogeneous(
            3, seed=SEED, fast_calibration=True)) as session:
        session.calibrate()
        serial = session.run(profile)
        sharded = session.run(profile, workers=3)
    _assert_bit_identical(sharded, serial)


def test_run_batch_workers_parity(serial_reference):
    _assert_bit_identical(run_batch(_fleet(), PROFILE, workers=3),
                          serial_reference)


def test_oversubscribed_workers_clamp_to_fleet(serial_reference):
    engine = ShardedEngine(_fleet(), workers=64)
    assert engine.workers == N_MONITORS
    _assert_bit_identical(engine.run(PROFILE), serial_reference)
