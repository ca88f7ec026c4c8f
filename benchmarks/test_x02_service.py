"""X2 — streaming-service throughput (raw engine vs multiplexed cohort).

Times the same 32-rig workload (16 clients x 2 monitors, 2 s horizon)
through the raw :class:`BatchEngine` and through a resident
:class:`FleetService` streaming every client bounded snapshot windows,
asserts every client's stitched stream is bit-identical to its rows of
the raw run (the parity contract is part of the bench), and prints the
numbers.

Attach and streaming are timed separately: attach cost is the same
calibration a standalone session pays (warm here — the fleet is sized
to the calibration LRU, 16 x 2 = 32 entries, so the raw baseline warms
every key), while the streaming phase carries the service's own per-tick
coalescing work (row slicing, per-window summaries, queue handling).
The bar: streaming keeps at least a third of raw engine throughput
while fanning 8 windows out to each of 16 clients.
"""

import asyncio
import json
import time

import numpy as np
import pytest

from repro.runtime import BatchEngine, FleetSpec, RunResult, Session
from repro.service import FleetService
from repro.station.profiles import hold

pytestmark = [pytest.mark.slow, pytest.mark.service]

N_CLIENTS = 16
N_MONITORS = 2  # per client -> 32-rig cohort (== the calibration LRU)
DURATION_S = 2.0
TICK_STEPS = 250  # 8 windows per client
BASE_SEED = 9000


def _client_rigs(seed):
    with Session(fleet=FleetSpec.homogeneous(
            N_MONITORS, seed=seed, fast_calibration=True)) as session:
        session.calibrate()
        return [handle.rig for handle in session.monitors]


def test_x02_service_streaming_throughput():
    """Raw engine vs streamed cohort at N=64; appends the service stage."""
    profile = hold(50.0, DURATION_S)
    seeds = [BASE_SEED + i for i in range(N_CLIENTS)]

    # Raw baseline: one engine over the exact rig set the service will
    # multiplex (first build pays calibration; the service reuses it).
    all_rigs = [rig for seed in seeds for rig in _client_rigs(seed)]
    t0 = time.perf_counter()
    raw = BatchEngine(all_rigs).run(profile)
    raw_s = time.perf_counter() - t0

    async def drive():
        async with FleetService(tick_steps=TICK_STEPS) as service:
            t0 = time.perf_counter()
            clients = [
                await service.attach(profile, fleet=FleetSpec.homogeneous(
                        N_MONITORS, seed=seed, fast_calibration=True))
                for seed in seeds
            ]
            attach_s = time.perf_counter() - t0

            async def consume(client):
                windows = [snap.window async for snap in client.snapshots()]
                return windows, await client.result()

            t0 = time.perf_counter()
            streamed = await asyncio.gather(*(consume(c) for c in clients))
            stream_s = time.perf_counter() - t0
            return clients, streamed, service.stats(), attach_s, stream_s

    clients, streamed, stats, attach_s, stream_s = asyncio.run(drive())

    # Parity is part of the bench: the cohort rows are the raw rows, and
    # a client's stitched stream is its awaited result.
    assert len({c.group_id for c in clients}) == 1
    for i, (windows, result) in enumerate(streamed):
        lo = i * N_MONITORS
        stitched = RunResult.concat(windows, axis="time")
        for name in ("time_s",) + RunResult.STACKED_FIELDS:
            assert np.array_equal(np.asarray(getattr(stitched, name)),
                                  np.asarray(getattr(result, name))), name
        assert np.array_equal(result.measured_mps,
                              raw.measured_mps[lo:lo + N_MONITORS])

    samples = N_CLIENTS * N_MONITORS * int(round(DURATION_S * 1000.0))
    stage = {
        "clients": N_CLIENTS,
        "n_monitors": N_CLIENTS * N_MONITORS,
        "tick_steps": TICK_STEPS,
        "samples": samples,
        "snapshots": stats["snapshots"],
        "ticks": stats["ticks"],
        "attach_s": attach_s,
        "raw_samples_per_s": samples / raw_s,
        "service_samples_per_s": samples / stream_s,
        "coalescing_overhead": stream_s / raw_s,
        "bit_identical": True,
    }
    print(json.dumps({"service": stage}, indent=2))
    assert stats["snapshots"] == N_CLIENTS * stats["ticks"]
    assert stats["completed"] == N_CLIENTS
    # Streaming must not cost more than ~3x the raw engine pass.
    assert stage["service_samples_per_s"] >= stage["raw_samples_per_s"] / 3.0, \
        stage
