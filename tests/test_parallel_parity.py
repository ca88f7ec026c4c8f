"""Sharded-runtime parity: process pools must not change a single bit.

The acceptance bar for :mod:`repro.runtime.parallel` is *exact* parity
with the serial batch engine: for any shard count and any worker
scheduling, the merged traces must equal the serial run bitwise.  These
tests assert that for shard counts 1, 2, 3 and N (one rig per worker),
through every public surface (`ShardedEngine`, `Session.run(workers=)`,
`MixedEngine(workers=)`, `characterize_meter_pool(workers=)`,
`FleetService(workers=)`, `run_durable`), across
`advance` windows, a mid-sequence pickle (the checkpoint path) and
`drop`, and with a worker crash injected mid-run.
"""

import asyncio
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import (BatchEngine, FleetSpec, MixedEngine, RunResult,
                           Session, ShardedEngine, run_durable)
from repro.runtime.faults import FAULT_ENV
from repro.service import FleetService
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
            for s in FleetSpec.homogeneous(n, seed=seed).monitor_seeds()]


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
    """``run_batch`` is gone (5.0); its one-call form is
    ``MixedEngine(rigs, workers=)``."""
    _assert_bit_identical(MixedEngine(_fleet(), workers=3).run(PROFILE),
                          serial_reference)


def test_oversubscribed_workers_clamp_to_fleet(serial_reference):
    engine = ShardedEngine(_fleet(), workers=64)
    assert engine.workers == N_MONITORS
    _assert_bit_identical(engine.run(PROFILE), serial_reference)


def test_sharded_windowed_advance_matches_one_shot(serial_reference):
    engine = ShardedEngine(_fleet(), workers=2)
    first = engine.advance(PROFILE, 700)
    second = engine.advance(PROFILE, 800)
    stitched = RunResult.concat([first, second], axis="time")
    _assert_bit_identical(stitched, serial_reference)


def test_sharded_pickle_roundtrip_resumes_bit_identical(serial_reference):
    """The checkpoint path: pickle between windows, restore, finish."""
    engine = ShardedEngine(_fleet(), workers=2)
    first = engine.advance(PROFILE, 700)
    restored = pickle.loads(pickle.dumps(engine))
    second = restored.advance(PROFILE, 800)
    stitched = RunResult.concat([first, second], axis="time")
    _assert_bit_identical(stitched, serial_reference)


def test_sharded_drop_preserves_survivor_bits():
    reference = BatchEngine(_fleet(5))
    head_ref = reference.advance(PROFILE, 700, record_every_n=20)
    reference.drop([1, 3])
    tail_ref = reference.advance(PROFILE, 800, record_every_n=20)

    engine = ShardedEngine(_fleet(5), workers=2)
    head = engine.advance(PROFILE, 700, record_every_n=20)
    engine.drop([1, 3])
    tail = engine.advance(PROFILE, 800, record_every_n=20)
    _assert_bit_identical(head, head_ref)
    _assert_bit_identical(tail, tail_ref)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sharded_matches_golden_archive_bytes(workers):
    """The golden archive gates every worker count, byte for byte.

    ``sharded_engine.npz`` is pinned at two workers (and is itself
    byte-identical to the serial ``batch_engine.npz``); the archive is
    the parity contract, so it is compared raw-buffer to raw-buffer and
    never regenerated by this test.
    """
    from tests.golden.regen import (GOLDEN_DIR, _PROFILE, _RECORD_EVERY_N,
                                    _fleet_rigs)

    engine = ShardedEngine(_fleet_rigs(), workers=workers)
    result = engine.run(_PROFILE, record_every_n=_RECORD_EVERY_N)
    with np.load(GOLDEN_DIR / "sharded_engine.npz") as archive:
        for name in ("time_s",) + RunResult.STACKED_FIELDS:
            stored = archive[name]
            fresh = np.ascontiguousarray(np.asarray(getattr(result, name)))
            assert fresh.dtype == stored.dtype, name
            assert fresh.shape == stored.shape, name
            assert fresh.tobytes() == stored.tobytes(), \
                f"{name}: sharded traces drifted from the golden bytes"


def test_characterize_meter_pool_workers_matches_serial():
    spec = FleetSpec.homogeneous(3, seed=SEED, use_pulsed_drive=False,
                                 fast_calibration=True)
    serial = characterize_meter_pool(spec, duration_s=4.0, settle_s=2.0)
    sharded = characterize_meter_pool(spec, workers=3, duration_s=4.0,
                                      settle_s=2.0)
    assert sharded == serial


def test_fleet_service_workers_parity():
    """Service cohort ticks sharded across workers stay bit-exact."""

    async def main():
        async with FleetService(tick_steps=700, workers=2) as service:
            session = await service.attach(
                PROFILE, fleet=FleetSpec.homogeneous(
                    2, seed=11, fast_calibration=True))
            async for _ in session.snapshots():
                pass
            return await session.result()

    result = asyncio.run(main())
    with Session(fleet=FleetSpec.homogeneous(
            2, seed=11, fast_calibration=True)) as session:
        session.calibrate()
        reference = session.run(PROFILE)
    _assert_bit_identical(result, reference)


def test_run_durable_workers_crash_resume_bit_identical(tmp_path,
                                                        monkeypatch):
    """Kill a 2-worker durable run after two windows; the resume equals
    both the uninterrupted 2-worker run and the serial reference."""
    profile = staircase([0.0, 70.0], dwell_s=0.25)  # 500 steps
    serial = run_durable(_fleet(2), profile,
                         checkpoint_path=tmp_path / "serial.ckpt",
                         record_every_n=10, window_steps=180)
    ref = run_durable(_fleet(2), profile,
                      checkpoint_path=tmp_path / "ref.ckpt",
                      record_every_n=10, window_steps=180, workers=2)
    _assert_bit_identical(ref, serial)

    calls = {"n": 0}
    real_advance = MixedEngine.advance

    def dying_advance(self, *args, **kwargs):
        if calls["n"] == 2:
            raise KeyboardInterrupt("simulated process death")
        calls["n"] += 1
        return real_advance(self, *args, **kwargs)

    monkeypatch.setattr(MixedEngine, "advance", dying_advance)
    with pytest.raises(KeyboardInterrupt):
        run_durable(_fleet(2), profile,
                    checkpoint_path=tmp_path / "run.ckpt",
                    record_every_n=10, window_steps=180, workers=2)
    monkeypatch.setattr(MixedEngine, "advance", real_advance)
    assert (tmp_path / "run.ckpt").exists()

    got = run_durable(_fleet(2), profile,
                      checkpoint_path=tmp_path / "run.ckpt",
                      record_every_n=10, window_steps=180, workers=2,
                      resume=True)
    _assert_bit_identical(got, ref)
    assert not (tmp_path / "run.ckpt").exists()


def test_engine_close_is_idempotent_and_refuses_reuse():
    engine = ShardedEngine(_fleet(2), workers=2)
    engine.advance(PROFILE, 200)
    engine.close()
    engine.close()  # idempotent
    with pytest.raises(ConfigurationError):
        engine.advance(PROFILE, 200)
    with pytest.raises(ConfigurationError):
        engine.run(PROFILE)
    with pytest.raises(ConfigurationError):
        engine.drop([0])


def test_session_refuses_other_backends():
    """``spawn`` is the one parallel backend; any other name is refused."""
    with Session(fleet=FleetSpec.homogeneous(
            2, seed=SEED, fast_calibration=True)) as session:
        session.calibrate()
        for backend in ("shm", "threads"):
            with pytest.raises(ConfigurationError) as exc:
                session.run(PROFILE, workers=2, backend=backend)
            assert exc.value.reason == "backend"
        spawn = session.run(hold(60.0, 0.2), workers=2, backend="spawn")
        serial = session.run(hold(60.0, 0.2))
    _assert_bit_identical(spawn, serial)
