"""Pool lifecycle and composition tests for the shm backend.

What the persistent pool promises beyond parity (covered in
``test_shm_parity``): workers are spawned once and reused across
windows and runs; teardown is deterministic and idempotent
(``close()`` / context managers / ``Session.close`` /
``FleetService.stop``); infrastructure failure during ``advance``
raises :class:`PoolWorkerError` instead of silently degrading; and the
backend composes with ``drop``, ``run_durable`` checkpoint/resume and
the fleet service without changing a bit.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import (BatchEngine, FleetSpec, MixedEngine,
                           PoolWorkerError, RunResult, Session,
                           ShardedEngine, ShmPool,
                           get_pool, resolve_backend, run_durable,
                           shutdown_pool, spawn_monitor_seeds)
from repro.runtime.faults import FAULT_ENV
from repro.runtime.shm import existing_pool
from repro.service import FleetService
from repro.station.profiles import hold, staircase
from repro.station.scenarios import build_calibrated_monitor

pytestmark = pytest.mark.parallel

SEED = 777
PROFILE = hold(60.0, 1.5)


def _fleet(n, seed=SEED):
    return [build_calibrated_monitor(seed=s, fast=True).rig
            for s in spawn_monitor_seeds(seed, n)]


def _assert_bit_identical(a, b):
    assert np.array_equal(np.asarray(a.time_s), np.asarray(b.time_s))
    for name in RunResult.STACKED_FIELDS:
        assert np.array_equal(np.asarray(getattr(a, name)),
                              np.asarray(getattr(b, name))), name


@pytest.fixture()
def fresh_pool():
    """Fork the pool under the current env; tear it down afterwards."""
    shutdown_pool()
    yield
    shutdown_pool()


# -- pool lifecycle ----------------------------------------------------------


def test_pool_workers_persist_across_windows_and_runs(fresh_pool):
    with ShardedEngine(_fleet(2), workers=2, backend="shm") as engine:
        engine.advance(PROFILE, 400)
        pool = existing_pool()
        assert pool is not None and pool.size == 2
        pids = [pool.call(i, ("ping",))[1] for i in range(2)]
        engine.advance(PROFILE, 400)
    # a second engine on the same pool reuses the same processes
    with ShardedEngine(_fleet(2), workers=2, backend="shm") as engine:
        engine.run(PROFILE)
    assert existing_pool() is pool
    assert [pool.call(i, ("ping",))[1] for i in range(2)] == pids


def test_pool_close_is_idempotent_and_context_managed(fresh_pool):
    with ShmPool() as pool:
        pool.ensure(2)
        assert pool.size == 2 and not pool.closed
    assert pool.closed
    pool.close()  # second close is a no-op
    with pytest.raises(ConfigurationError):
        pool.ensure(1)


def test_global_pool_recreated_after_shutdown(fresh_pool):
    first = get_pool(1)
    shutdown_pool()
    assert first.closed and existing_pool() is None
    second = get_pool(1)
    assert second is not first and not second.closed


def test_resolve_backend_validates():
    assert resolve_backend("spawn") == "spawn"
    assert resolve_backend("shm") == "shm"
    with pytest.raises(ConfigurationError) as exc:
        resolve_backend("threads")
    assert exc.value.reason == "backend"


def test_engine_close_is_idempotent_and_refuses_reuse():
    engine = ShardedEngine(_fleet(2), workers=2, backend="shm")
    engine.advance(PROFILE, 200)
    engine.close()
    engine.close()  # idempotent
    with pytest.raises(ConfigurationError):
        engine.advance(PROFILE, 200)
    with pytest.raises(ConfigurationError):
        engine.run(PROFILE)


# -- failure semantics -------------------------------------------------------


def test_advance_worker_crash_raises_pool_error(fresh_pool, monkeypatch):
    """``advance`` holds live state in the pool: a dead worker is an
    error (durable runs recover via checkpoint resume), never a silent
    partial result."""
    monkeypatch.setenv(FAULT_ENV, "crash:0")
    with ShardedEngine(_fleet(2), workers=2, backend="shm") as engine:
        with pytest.raises(PoolWorkerError):
            engine.advance(PROFILE, 400)


def test_run_fallback_counts_shards(fresh_pool, monkeypatch):
    """``run`` owns parent-side rigs, so a dead worker degrades that
    shard to in-process serial and the run still completes."""
    from repro import observability as obs
    from repro.observability import MetricsRegistry

    monkeypatch.setenv(FAULT_ENV, "crash:1")
    reference = BatchEngine(_fleet(2)).run(PROFILE)
    old = obs.get_registry()
    registry = obs.set_registry(MetricsRegistry(enabled=True))
    try:
        with ShardedEngine(_fleet(2), workers=2, backend="shm") as engine:
            result = engine.run(PROFILE)
        fallbacks = registry.counter("shard.fallbacks").value
    finally:
        obs.set_registry(old)
    _assert_bit_identical(result, reference)
    assert fallbacks == 1


# -- composition -------------------------------------------------------------


def test_shm_drop_preserves_survivor_bits():
    reference = BatchEngine(_fleet(5))
    head_ref = reference.advance(PROFILE, 700, record_every_n=20)
    reference.drop([1, 3])
    tail_ref = reference.advance(PROFILE, 800, record_every_n=20)

    with ShardedEngine(_fleet(5), workers=2, backend="shm") as engine:
        head = engine.advance(PROFILE, 700, record_every_n=20)
        engine.drop([1, 3])
        tail = engine.advance(PROFILE, 800, record_every_n=20)
    _assert_bit_identical(head, head_ref)
    _assert_bit_identical(tail, tail_ref)


def test_run_durable_shm_crash_resume_bit_identical(tmp_path, monkeypatch):
    """Kill a shm durable run after two windows; resume equals both the
    uninterrupted shm run and the serial reference."""
    profile = staircase([0.0, 70.0], dwell_s=0.25)  # 500 steps
    serial = run_durable(_fleet(2), profile,
                         checkpoint_path=tmp_path / "serial.ckpt",
                         record_every_n=10, window_steps=180)
    ref = run_durable(_fleet(2), profile,
                      checkpoint_path=tmp_path / "ref.ckpt",
                      record_every_n=10, window_steps=180,
                      workers=2, backend="shm")
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
                    record_every_n=10, window_steps=180,
                    workers=2, backend="shm")
    monkeypatch.setattr(MixedEngine, "advance", real_advance)
    assert (tmp_path / "run.ckpt").exists()

    got = run_durable(_fleet(2), profile,
                      checkpoint_path=tmp_path / "run.ckpt",
                      record_every_n=10, window_steps=180,
                      workers=2, backend="shm", resume=True)
    _assert_bit_identical(got, ref)
    assert not (tmp_path / "run.ckpt").exists()


def test_fleet_service_shm_backend_parity():
    """Service cohort ticks ride the pool and stay bit-exact."""

    async def main():
        async with FleetService(tick_steps=700, workers=2,
                                backend="shm") as service:
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
    # stop() tears the pool down with the service
    assert existing_pool() is None


def test_session_close_tears_down_pool(fresh_pool):
    with Session(fleet=FleetSpec.homogeneous(
            2, seed=SEED, fast_calibration=True)) as session:
        session.calibrate()
        session.run(PROFILE, workers=2, backend="shm")
        assert existing_pool() is not None
    assert existing_pool() is None


def test_facade_run_accepts_backend():
    """``repro.run`` forwards ``backend=`` to the session run, not to
    the Session constructor."""
    import repro

    profile = hold(60.0, 0.5)
    spec = FleetSpec.homogeneous(2, seed=SEED, fast_calibration=True)
    shm = repro.run(profile, fleet=spec, workers=2, backend="shm")
    ref = repro.run(profile, fleet=spec)
    _assert_bit_identical(shm, ref)


def test_pickled_results_own_their_arrays():
    import pickle

    with ShardedEngine(_fleet(2), workers=2, backend="shm") as engine:
        result = engine.run(PROFILE)
    clone = pickle.loads(pickle.dumps(result))
    _assert_bit_identical(clone, result)
    assert getattr(clone, "_shm", None) is None
