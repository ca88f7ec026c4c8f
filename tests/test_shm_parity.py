"""Parity contracts first pinned for the retired shared-memory backend.

``backend="shm"`` is gone; ``spawn`` is the one parallel backend.  What
these tests asserted for the shared-memory pool still holds for it and
is kept here under the original names: a context-managed
``ShardedEngine`` reproduces the serial engine bitwise for worker
counts 1, 2, 3 and N and ends closed; a worker killed mid-run degrades
its job to in-process serial under the default retry budget; the
per-rig scheduler accounting matches serial; and ``Session.run`` with
the backend named explicitly and ``repro.run`` on a ``FleetSpec`` stay
bit-identical to their serial runs.  The worker path needs several
config groups (one job each), so the engine-level fleets have one
group per rig; the ``Session`` and ``repro.run`` fleets are one group
and run in-process.
"""

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError
from repro.runtime import (FleetSpec, MixedEngine, RunResult, Session,
                           ShardedEngine)
from repro.runtime.faults import FAULT_ENV
from repro.station.profiles import hold, staircase
from repro.station.scenarios import build_calibrated_monitor

pytestmark = pytest.mark.parallel

N_MONITORS = 4
SEED = 777
PROFILE = hold(60.0, 1.5)


#: One overtemperature per rig: each rig is its own config group.
OVERTEMPS = (5.0, 7.0, 6.0, 8.0)


def _fleet(n=N_MONITORS, seed=SEED):
    """Fresh rigs with the same seed derivation a Session would use,
    one config group each."""
    return [build_calibrated_monitor(seed=s, fast=True,
                                     overtemperature_k=t).rig
            for s, t in zip(FleetSpec.homogeneous(
                n, seed=seed).monitor_seeds(), OVERTEMPS)]


def _assert_bit_identical(a, b):
    assert np.array_equal(np.asarray(a.time_s), np.asarray(b.time_s))
    for name in RunResult.STACKED_FIELDS:
        lhs = np.asarray(getattr(a, name))
        rhs = np.asarray(getattr(b, name))
        assert lhs.shape == rhs.shape, name
        assert np.array_equal(lhs, rhs), f"{name} differs bitwise"


@pytest.fixture(scope="module")
def serial_reference():
    """The serial run every parallel variant must reproduce."""
    return MixedEngine(_fleet()).run(PROFILE)


@pytest.mark.parametrize("workers", [1, 2, 3, N_MONITORS])
def test_shm_matches_serial(serial_reference, workers):
    with ShardedEngine(_fleet(), workers=workers) as engine:
        result = engine.run(PROFILE)
    _assert_bit_identical(result, serial_reference)
    with pytest.raises(ConfigurationError):
        engine.run(PROFILE)


def test_shm_survives_worker_crash(serial_reference, monkeypatch):
    """A killed worker degrades that job to in-process serial."""
    monkeypatch.setenv(FAULT_ENV, "crash:0")
    with ShardedEngine(_fleet(), workers=2) as engine:
        _assert_bit_identical(engine.run(PROFILE), serial_reference)


def test_shm_scheduler_accounting_matches_serial():
    serial_rigs, sharded_rigs = _fleet(2), _fleet(2)
    MixedEngine(serial_rigs).run(PROFILE)
    with ShardedEngine(sharded_rigs, workers=2) as engine:
        engine.run(PROFILE)
    for serial_rig, sharded_rig in zip(serial_rigs, sharded_rigs):
        assert (sharded_rig.monitor.platform.scheduler.ticks
                == serial_rig.monitor.platform.scheduler.ticks)


def test_session_shm_backend_parity():
    """The backend named explicitly runs the same bits as serial."""
    profile = staircase([0.0, 80.0], dwell_s=1.0)
    with Session(fleet=FleetSpec.homogeneous(
            3, seed=SEED, fast_calibration=True)) as session:
        session.calibrate()
        serial = session.run(profile)
        sharded = session.run(profile, workers=3, backend="spawn")
    _assert_bit_identical(sharded, serial)


def test_run_batch_shm_backend_parity():
    """``repro.run`` on a FleetSpec (``run_batch`` is gone in 5.0):
    sharded equals serial bitwise."""
    spec = FleetSpec.homogeneous(3, seed=SEED, fast_calibration=True)
    _assert_bit_identical(repro.run(PROFILE, fleet=spec, workers=3),
                          repro.run(PROFILE, fleet=spec))
