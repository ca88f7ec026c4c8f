"""Sharded-runtime failure semantics: retry, fallback, watchdog.

Worker failures are injected through the ``REPRO_FAULT`` env-var
hook in the worker entrypoint (crash = hard ``os._exit``, hang = sleep,
raise = in-worker exception, crash-once = die on the first attempt
only).  Every scenario must still produce the bit-identical serial
result — for one-shot runs and for ``advance`` windows alike; these
tests additionally pin the degradation path taken via the
``shard.retries`` / ``shard.fallbacks`` observability counters, and
that no worker process outlives the call that started it.
"""

import asyncio
import multiprocessing

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.observability import MetricsRegistry, get_registry, set_registry
from repro.runtime import BatchEngine, RunResult, ShardedEngine
from repro.runtime.faults import FAULT_ENV
from repro.station.fleet import MonitoredNetwork
from repro.station.network import PipeNetwork
from repro.station.profiles import hold
from repro.station.scenarios import build_calibrated_monitor

pytestmark = pytest.mark.parallel

PROFILE = hold(50.0, 1.0)
SEEDS = (31, 32, 33)


def _fleet():
    return [build_calibrated_monitor(seed=s, fast=True).rig for s in SEEDS]


def _assert_bit_identical(a, b):
    assert np.array_equal(np.asarray(a.time_s), np.asarray(b.time_s))
    for name in RunResult.STACKED_FIELDS:
        assert np.array_equal(np.asarray(getattr(a, name)),
                              np.asarray(getattr(b, name))), name


@pytest.fixture()
def metrics():
    """A fresh enabled registry so counter assertions see only this test."""
    registry = MetricsRegistry(enabled=True)
    previous = get_registry()
    set_registry(registry)
    yield registry
    set_registry(previous)


@pytest.fixture(scope="module")
def serial_reference():
    return BatchEngine(_fleet()).run(PROFILE)


def _counter(registry, name):
    return registry.snapshot().get(name, {}).get("value", 0)


def test_crash_exhausts_retries_then_falls_back(
        serial_reference, metrics, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "crash:1")
    engine = ShardedEngine(_fleet(), workers=3, max_retries=1)
    result = engine.run(PROFILE)
    _assert_bit_identical(result, serial_reference)
    assert _counter(metrics, "shard.retries") >= 1
    assert _counter(metrics, "shard.fallbacks") >= 1


def test_crash_once_recovers_via_retry(
        serial_reference, metrics, monkeypatch, tmp_path):
    monkeypatch.setenv(FAULT_ENV, f"crash-once:0:{tmp_path}")
    engine = ShardedEngine(_fleet(), workers=3, max_retries=2)
    result = engine.run(PROFILE)
    _assert_bit_identical(result, serial_reference)
    assert _counter(metrics, "shard.retries") >= 1
    assert (tmp_path / "shard0.tripped").exists()


def test_hung_worker_is_killed_and_falls_back(
        serial_reference, metrics, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "hang:0")
    engine = ShardedEngine(_fleet(), workers=3, max_retries=0,
                           timeout_s=2.0)
    result = engine.run(PROFILE)
    _assert_bit_identical(result, serial_reference)
    assert _counter(metrics, "shard.fallbacks") >= 1


def test_in_worker_exception_degrades_gracefully(
        serial_reference, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "raise:2")
    engine = ShardedEngine(_fleet(), workers=3, max_retries=1)
    _assert_bit_identical(engine.run(PROFILE), serial_reference)


def test_deterministic_sensor_fault_is_not_retried(metrics, monkeypatch):
    # A membrane burst is physics, not infrastructure: the sharded run
    # must re-raise it without burning retries or falling back.
    from repro.errors import SensorFault
    burst = hold(50.0, 1.0, pressure_bar=100.0)
    engine = ShardedEngine(_fleet(), workers=3, max_retries=2)
    with pytest.raises(SensorFault):
        engine.run(burst)
    assert _counter(metrics, "shard.retries") == 0
    assert _counter(metrics, "shard.fallbacks") == 0


def _windows(engine, cuts=(400, 600)):
    """Advance ``engine`` through ``PROFILE`` in windows; stitch them."""
    return RunResult.concat([engine.advance(PROFILE, n) for n in cuts],
                            axis="time")


def test_window_crash_exhausts_retries_then_falls_back(
        serial_reference, metrics, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "crash:1")
    engine = ShardedEngine(_fleet(), workers=3, max_retries=1)
    _assert_bit_identical(_windows(engine), serial_reference)
    # every window retries shard 1 once on a fresh worker, then degrades
    assert _counter(metrics, "shard.retries") == 2
    assert _counter(metrics, "shard.fallbacks") == 2


def test_window_crash_once_recovers_via_retry(
        serial_reference, metrics, monkeypatch, tmp_path):
    monkeypatch.setenv(FAULT_ENV, f"crash-once:0:{tmp_path}")
    engine = ShardedEngine(_fleet(), workers=3, max_retries=1)
    _assert_bit_identical(_windows(engine), serial_reference)
    assert _counter(metrics, "shard.retries") == 1
    assert _counter(metrics, "shard.fallbacks") == 0
    assert (tmp_path / "shard0.tripped").exists()


def test_window_hung_worker_is_killed_and_falls_back(
        serial_reference, metrics, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "hang:0")
    engine = ShardedEngine(_fleet(), workers=3, max_retries=0,
                           timeout_s=2.0)
    _assert_bit_identical(_windows(engine), serial_reference)
    assert _counter(metrics, "shard.retries") == 0
    # the hung shard falls back in both windows (a loaded host may
    # push a healthy shard past the budget too)
    assert _counter(metrics, "shard.fallbacks") >= 2


def test_no_worker_outlives_a_call(monkeypatch, tmp_path):
    """Sessions, crashed windows and services reap every worker."""
    from repro.runtime import FleetSpec, Session
    from repro.service import FleetService

    def fleet():
        return FleetSpec.homogeneous(2, seed=5, fast_calibration=True)

    assert multiprocessing.active_children() == []
    with Session(fleet=fleet()) as session:
        session.calibrate()
        session.run(PROFILE, workers=2)
        assert multiprocessing.active_children() == []
    with Session(fleet=fleet(), checkpoint_dir=tmp_path) as session:
        session.calibrate()
        session.run(PROFILE, workers=2)
        assert multiprocessing.active_children() == []

    monkeypatch.setenv(FAULT_ENV, "crash:0")
    engine = ShardedEngine(_fleet(), workers=2, max_retries=0)
    engine.advance(PROFILE, 300)
    assert multiprocessing.active_children() == []
    monkeypatch.delenv(FAULT_ENV)

    async def serve():
        async with FleetService(tick_steps=400, workers=2) as service:
            client = await service.attach(PROFILE, fleet=fleet())
            await client.result()

    asyncio.run(serve())
    assert multiprocessing.active_children() == []


def test_knob_validation():
    rigs = _fleet()
    with pytest.raises(ConfigurationError):
        ShardedEngine(rigs, workers=0)
    with pytest.raises(ConfigurationError):
        ShardedEngine(rigs, max_retries=-1)
    with pytest.raises(ConfigurationError):
        ShardedEngine(rigs, timeout_s=0.0)


def test_session_refuses_workers_on_scalar_engine():
    from repro.runtime import FleetSpec, Session
    with Session(fleet=FleetSpec.homogeneous(
            1, seed=5, fast_calibration=True)) as session:
        session.calibrate()
        with pytest.raises(ConfigurationError):
            session.run(PROFILE, engine="scalar", workers=2)


def test_monitored_network_validates_workers():
    """The fleet model is serial by construction: ``workers=`` is refused."""
    network = PipeNetwork()
    network.add_pipe("reservoir", "a", demand_m3_s=0.5e-3)
    fleet = MonitoredNetwork(network, seed=1)
    for workers in (0, 1, 2):
        with pytest.raises(TypeError):
            fleet.run(0.1, workers=workers)
    report = fleet.run(0.1)
    assert report.snapshots > 0
