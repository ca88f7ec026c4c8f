"""Streaming fleet-service tests: parity, cohorts, backpressure, faults.

All tests drive the single-threaded asyncio service with
``asyncio.run`` from synchronous test functions.  The load-bearing
claims: streamed windows stitch bit-identical to standalone
``Session.run``; clients coalesce into shared-engine cohorts; a detach
finalizes a bit-exact partial without perturbing survivors; engine
faults propagate to every cohort member as the typed exception; a slow
consumer stalls only its cohort, at bounded memory.
"""

import asyncio

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, SensorFault, ServiceError
from repro.runtime import FleetSpec, RunResult, Session
from repro.runtime.batch import BatchEngine
from repro.service import FleetService, Snapshot, SnapshotStream, connect
from repro.station.profiles import hold, staircase

pytestmark = pytest.mark.service

PROFILE = staircase([20.0, 60.0, 40.0], dwell_s=1.0)  # 3000 steps at 1 kHz


async def wait_until(predicate, timeout=30.0):
    """Yield to the service loop until ``predicate()`` holds, bounded.

    The tick loop shares this event loop, so a zero-delay sleep hands
    it control between polls; ``asyncio.wait_for`` bounds the whole
    wait so a service regression fails the test in seconds instead of
    hanging the suite on an unbounded busy-wait or a guessed number of
    yields.
    """

    async def poll():
        while not predicate():
            await asyncio.sleep(0)

    await asyncio.wait_for(poll(), timeout=timeout)


def fast_fleet(n_monitors, seed, **build):
    """A homogeneous fast-calibration fleet (the suite's default build)."""
    return FleetSpec.homogeneous(n_monitors, seed=seed,
                                 fast_calibration=True, **build)


def standalone(profile, *, n_monitors, seed):
    """The reference a service client must match bit for bit."""
    with Session(fleet=fast_fleet(n_monitors, seed)) as session:
        session.calibrate()
        return session.run(profile)


def assert_traces_equal(a, b, ticks=None):
    hi = len(a) if ticks is None else ticks
    assert np.array_equal(a.time_s, b.time_s[:hi])
    for name in RunResult.STACKED_FIELDS:
        assert np.array_equal(getattr(a, name),
                              getattr(b, name)[:, :hi]), name


def test_cohort_coalescing_and_bit_exact_parity():
    """Two same-config clients share one engine; both match Session.run."""

    async def main():
        async with FleetService(tick_steps=700) as service:
            a = await service.attach(PROFILE, fleet=fast_fleet(2, 11))
            b = await service.attach(PROFILE, fleet=fast_fleet(3, 12))
            snaps_a = [snap async for snap in a.snapshots()]
            result_a, result_b = await asyncio.gather(a.result(), b.result())
            stats = service.stats()
        return a, b, snaps_a, result_a, result_b, stats

    a, b, snaps_a, result_a, result_b, stats = asyncio.run(main())
    assert a.group_id == b.group_id  # one shared engine
    assert a.client_id != b.client_id
    assert a.total_steps == 3000 and a.record_every_n == 20
    # 3000 steps in 700-step ticks -> 5 windows, monotone progress
    assert [snap.seq for snap in snaps_a] == list(range(5))
    assert [snap.done_steps for snap in snaps_a] == [700, 1400, 2100,
                                                     2800, 3000]
    assert snaps_a[-1].complete and not snaps_a[0].complete
    assert "run.measured_mps" in snaps_a[0].summary
    # windows stitch into exactly the awaited result
    assert_traces_equal(
        RunResult.concat([s.window for s in snaps_a], axis="time"), result_a)
    # and both clients match a standalone run of their own config/seed
    assert_traces_equal(result_a, standalone(PROFILE, n_monitors=2, seed=11))
    assert_traces_equal(result_b, standalone(PROFILE, n_monitors=3, seed=12))
    assert stats["completed"] == 2 and stats["clients"] == 0
    assert not a.attached and not b.attached


def test_config_mismatch_opens_separate_cohorts():
    async def main():
        async with FleetService() as service:
            base = await service.attach(hold(50.0, 0.5),
                                        fleet=fast_fleet(1, 5))
            cadence = await service.attach(hold(50.0, 0.5),
                                           fleet=fast_fleet(1, 5),
                                           record_every_n=10)
            profile = await service.attach(hold(60.0, 0.5),
                                           fleet=fast_fleet(1, 5))
            # There is no numerics mode left to split cohorts on.
            with pytest.raises(TypeError):
                await service.attach(hold(50.0, 0.5),
                                     fleet=fast_fleet(1, 5), numerics="exact")
            groups = {base.group_id, cadence.group_id, profile.group_id}
            await asyncio.gather(base.result(), cadence.result(),
                                 profile.result())
        return groups

    assert len(asyncio.run(main())) == 3


def test_detach_mid_run_partial_and_survivor_parity():
    """A detach yields a bit-exact partial and never disturbs survivors."""

    async def main():
        async with FleetService(tick_steps=700, max_pending=2) as service:
            a = await service.attach(PROFILE, fleet=fast_fleet(2, 11))
            b = await service.attach(PROFILE, fleet=fast_fleet(1, 12))
            # nobody consumes: the cohort stalls at max_pending ticks
            await wait_until(lambda: b.done_steps >= 1400)
            partial = await b.detach()
            with pytest.raises(ServiceError) as err:
                await b.detach()
            # the queued windows still drain after the detach close
            leftovers = [snap async for snap in b.snapshots()]
            # draining a frees the stall; the cohort runs to the horizon
            async for _ in a.snapshots():
                pass
            result_a = await a.result()
            # b's count froze at detach; survivors advancing cannot move it
            frozen = b.done_steps
        return partial, err.value, result_a, leftovers, frozen

    partial, detach_err, result_a, leftovers, frozen = asyncio.run(main())
    assert detach_err.reason == "detached"
    assert frozen == 1400
    assert [snap.seq for snap in leftovers] == [0, 1]
    assert_traces_equal(
        RunResult.concat([snap.window for snap in leftovers], axis="time"),
        partial)
    # partial == the first 1400 steps (70 ticks) of b's standalone run
    assert len(partial) == 70
    assert_traces_equal(partial, standalone(PROFILE, n_monitors=1, seed=12),
                        ticks=70)
    # survivor bits unchanged by the mid-run drop
    assert_traces_equal(result_a, standalone(PROFILE, n_monitors=2, seed=11))


def test_detach_before_any_tick_returns_empty_partial():
    async def main():
        service = FleetService()  # never started: no ticks can happen
        client = await service.attach(hold(50.0, 0.5), fleet=fast_fleet(1, 5))
        partial = await client.detach()
        await service.stop()
        return client, partial

    client, partial = asyncio.run(main())
    assert len(partial) == 0 and partial.n_monitors == 1
    assert not client.attached


def test_attach_storm_lands_in_one_cohort():
    """100+ clients attached before the first tick share one engine."""
    profile = hold(60.0, 0.3)
    seeds = [31 + (i % 8) for i in range(104)]

    async def main():
        service = FleetService()
        clients = [
            await service.attach(profile, fleet=fast_fleet(1, seed))
            for seed in seeds
        ]
        group_ids = {client.group_id for client in clients}
        await service.start()
        results = await asyncio.gather(*(c.result() for c in clients))
        fleet = service.stats()["attaches"]
        await service.stop()
        return group_ids, results, fleet

    group_ids, results, attaches = asyncio.run(main())
    assert len(group_ids) == 1  # one cohort, one 104-rig engine
    assert attaches == 104
    references = {seed: standalone(profile, n_monitors=1, seed=seed)
                  for seed in set(seeds)}
    for seed, result in zip(seeds, results):
        assert_traces_equal(result, references[seed])


def test_engine_crash_propagates_typed_to_all_members():
    burst = hold(50.0, 1.0, pressure_bar=80.0)  # over membrane rating

    async def main():
        async with FleetService(tick_steps=200) as service:
            doomed_a = await service.attach(burst, fleet=fast_fleet(1, 5))
            doomed_b = await service.attach(burst, fleet=fast_fleet(2, 6))
            bystander = await service.attach(hold(40.0, 0.5),
                                             fleet=fast_fleet(1, 7))
            with pytest.raises(SensorFault):
                await doomed_a.result()
            with pytest.raises(SensorFault):
                async for _ in doomed_b.snapshots():
                    pass
            survivor = await bystander.result()
            stats = service.stats()
        return survivor, stats

    survivor, stats = asyncio.run(main())
    assert stats["crashed_groups"] == 1
    assert stats["completed"] == 1
    assert_traces_equal(survivor, standalone(hold(40.0, 0.5),
                                             n_monitors=1, seed=7))


def test_unexpected_tick_fault_fails_clients_not_the_loop():
    """A non-ReproError escaping a tick resolves futures, not kills the loop."""

    def buggy_advance(self, *args, **kwargs):
        raise RuntimeError("service bug, not an engine fault")

    async def main():
        async with FleetService(tick_steps=100) as service:
            doomed = await service.attach(hold(50.0, 0.5),
                                          fleet=fast_fleet(1, 5))
            original = BatchEngine.advance
            BatchEngine.advance = buggy_advance
            try:
                with pytest.raises(RuntimeError):
                    await doomed.result()
                with pytest.raises(RuntimeError):
                    await doomed.snapshot()
            finally:
                BatchEngine.advance = original
            alive = service.running
            # the loop survived: a fresh cohort still runs to completion
            fresh = await service.attach(hold(50.0, 0.3),
                                         fleet=fast_fleet(1, 7))
            result = await fresh.result()
            stats = service.stats()
        return alive, result, stats

    alive, result, stats = asyncio.run(main())
    assert alive
    assert stats["crashed_groups"] == 1 and stats["completed"] == 1
    assert_traces_equal(result, standalone(hold(50.0, 0.3),
                                           n_monitors=1, seed=7))


def test_attach_validation_failure_closes_the_opened_session(monkeypatch):
    """A rejected attach must not leak the session it already opened."""
    from repro.service import service as service_module

    built = []

    class RecordingSession(Session):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(service_module, "Session", RecordingSession)

    async def main():
        async with FleetService() as service:
            with pytest.raises(ConfigurationError):
                await service.attach(hold(50.0, 0.5),
                                     fleet=fast_fleet(1, 5), record_every_n=0)
            with pytest.raises(ConfigurationError):
                await service.attach(hold(50.0, 1e-4), fleet=fast_fleet(1, 5))
            return service.stats()

    stats = asyncio.run(main())
    assert stats["clients"] == 0 and not stats["groups"]
    assert [session.state for session in built] == ["closed", "closed"]


def test_backpressure_bounds_memory_and_drains_to_completion():
    profile = hold(60.0, 10.0)  # 10000 steps

    async def main():
        async with FleetService(tick_steps=100, max_pending=3) as service:
            client = await service.attach(profile, fleet=fast_fleet(1, 9))
            # let the loop run with no consumer until it provably stalls
            await wait_until(lambda: client.stream_depth == 3 and
                             service.stats()["backpressure_stalls"] > 0)
            stalled = (client.stream_depth, client.done_steps,
                       service.stats()["backpressure_stalls"])
            snaps = [snap async for snap in client.snapshots()]
            result = await client.result()
        return stalled, snaps, result

    (depth, done, stalls), snaps, result = asyncio.run(main())
    # exactly bound ticks ran, then the producer stalled (bounded memory)
    assert depth == 3 and done == 300
    assert stalls > 0
    # draining released the stall and the run finished
    assert len(snaps) == 100
    assert len(result) == 500
    assert_traces_equal(result, standalone(profile, n_monitors=1, seed=9))


def test_stop_fails_attached_clients_with_service_error():
    async def main():
        service = await FleetService(max_pending=1).start()
        client = await service.attach(hold(60.0, 10.0), fleet=fast_fleet(1, 9))
        await asyncio.sleep(0)
        await service.stop()
        with pytest.raises(ServiceError) as from_result:
            await client.result()
        with pytest.raises(ServiceError) as from_stream:
            while await client.snapshot() is not None:
                pass
        with pytest.raises(ServiceError) as from_attach:
            await service.attach(hold(60.0, 1.0), fleet=fast_fleet(1, 42))
        return from_result.value, from_stream.value, from_attach.value

    from_result, from_stream, from_attach = asyncio.run(main())
    assert from_result.reason == "stopped"
    assert from_stream.reason == "stopped"
    assert from_attach.reason == "stopped"


def test_snapshot_stream_bound_and_close_semantics():
    def snap(seq):
        window = standalone(hold(50.0, 0.1), n_monitors=1, seed=3)
        return Snapshot(seq=seq, window=window, summary=window.summary(),
                        done_steps=100 * (seq + 1), total_steps=300)

    async def main():
        freed = []
        stream = SnapshotStream(2, on_space=lambda: freed.append(True))
        assert stream.has_space and stream.depth == 0
        stream.push(snap(0))
        stream.push(snap(1))
        assert not stream.has_space
        with pytest.raises(ServiceError) as overrun:
            stream.push(snap(2))
        assert overrun.value.reason == "backpressure"
        first = await stream.get()
        assert first.seq == 0 and freed == [True]
        stream.close()  # normal close: the queued item still drains
        stream.close()  # idempotent
        with pytest.raises(ServiceError):
            stream.push(snap(3))
        assert (await stream.get()).seq == 1
        assert await stream.get() is None

        errored = SnapshotStream(2)
        errored.push(snap(0))
        errored.close(SensorFault("membrane burst"))
        with pytest.raises(SensorFault):  # error close drops the queue
            await errored.get()
        with pytest.raises(ServiceError):
            SnapshotStream(0)

    asyncio.run(main())


def test_facade_run_and_connect_are_bit_identical():
    profile = hold(55.0, 0.5)
    oneshot = repro.run(profile, fleet=fast_fleet(2, 17))

    async def main():
        async with connect(tick_steps=300) as client:
            return await client.run(profile, fleet=fast_fleet(2, 17))

    assert_traces_equal(asyncio.run(main()), oneshot)
    assert_traces_equal(oneshot, standalone(profile, n_monitors=2, seed=17))


def test_facade_run_drains_past_the_stream_bound():
    """client.run on a profile longer than max_pending*tick_steps samples
    must drain the stream itself — it used to deadlock awaiting result()."""
    profile = hold(60.0, 2.0)  # 2000 steps = 20 ticks of 100 >> 2 pending

    async def main():
        async with connect(tick_steps=100, max_pending=2) as client:
            return await asyncio.wait_for(
                client.run(profile, fleet=fast_fleet(1, 13)),
                timeout=60.0)

    assert_traces_equal(asyncio.run(main()),
                        standalone(profile, n_monitors=1, seed=13))


def test_connect_shares_a_resident_service_without_owning_it():
    async def main():
        async with FleetService() as service:
            with pytest.raises(ServiceError):
                connect(service, tick_steps=100)  # service or kwargs
            client = connect(service)
            assert client.service is service
            session = await client.attach(hold(50.0, 0.3),
                                          fleet=fast_fleet(1, 5))
            result = await session.result()
            await client.close()  # shared: must NOT stop the service
            still_running = service.running
            again = await client.run(hold(50.0, 0.3), fleet=fast_fleet(1, 5))
        return result, still_running, again

    result, still_running, again = asyncio.run(main())
    assert still_running
    assert_traces_equal(result, again)


def test_service_stats_reports_live_cohorts():
    async def main():
        async with FleetService(tick_steps=100, max_pending=1) as service:
            client = await service.attach(hold(60.0, 5.0),
                                          fleet=fast_fleet(1, 9))
            open_stats = service.stats()  # before the first tick
            await wait_until(lambda: (stats := service.stats())["groups"]
                             and stats["groups"][0]["done_steps"] > 0)
            sealed_stats = service.stats()
            await client.detach()
        return open_stats, sealed_stats

    open_stats, sealed_stats = asyncio.run(main())
    assert open_stats["running"] and open_stats["clients"] == 1
    (open_group,) = open_stats["groups"]
    # The cohort's engine exists from its first member.
    assert open_group["lanes"] == 1 and open_group["config_groups"] == 1
    assert open_group["done_steps"] == 0
    (sealed_group,) = sealed_stats["groups"]
    assert sealed_group["lanes"] == 1 and sealed_group["fleet_size"] == 1
    assert 0 < sealed_group["done_steps"] <= sealed_group["total_steps"]


def standalone_spec(profile, fleet):
    """Standalone reference for a FleetSpec-described client."""
    with Session(fleet=fleet) as session:
        session.calibrate()
        return session.run(profile)


def test_mixed_build_clients_share_one_cohort():
    """Clients whose builds differ structurally still coalesce: the
    cohort runs on a MixedEngine that sub-batches per config group, and
    every client's stream stays bit-identical to its standalone run."""
    from repro.runtime import FleetSpec

    short = staircase([0.0, 60.0], dwell_s=1.0)
    spec = FleetSpec.homogeneous(1, seed=13, fast_calibration=True)

    async def main():
        async with FleetService(tick_steps=700) as service:
            plain = await service.attach(short, fleet=fast_fleet(1, 11))
            hot = await service.attach(short,
                                       fleet=fast_fleet(
                                           1, 12, overtemperature_k=7.0))
            from_spec = await service.attach(short, fleet=spec)
            mid_stats = {}

            async def consume(client, probe=False):
                async for snap in client.snapshots():
                    if probe and not mid_stats:
                        mid_stats.update(service.stats())
                return await client.result()

            results = await asyncio.gather(consume(plain, probe=True),
                                           consume(hot), consume(from_spec))
        return (plain, hot, from_spec), results, mid_stats

    clients, results, mid_stats = asyncio.run(main())
    plain, hot, from_spec = clients
    assert plain.group_id == hot.group_id == from_spec.group_id
    (group,) = mid_stats["groups"]
    assert group["members"] == 3 and group["fleet_size"] == 3
    assert group["config_groups"] == 2  # default build vs 7 K overtemp

    assert_traces_equal(results[0],
                        standalone(short, n_monitors=1, seed=11),
                        ticks=len(results[0]))
    with Session(fleet=fast_fleet(1, 12, overtemperature_k=7.0)) as session:
        session.calibrate()
        hot_ref = session.run(short)
    assert_traces_equal(results[1], hot_ref, ticks=len(results[1]))
    assert_traces_equal(results[2], standalone_spec(short, spec),
                        ticks=len(results[2]))


def test_mixed_cohort_detach_preserves_survivor_bits():
    short = staircase([0.0, 60.0], dwell_s=1.0)

    async def main():
        async with FleetService(tick_steps=400) as service:
            survivor = await service.attach(short, fleet=fast_fleet(1, 21))
            leaver = await service.attach(short,
                                          fleet=fast_fleet(
                                              1, 22, overtemperature_k=7.0))
            assert survivor.group_id == leaver.group_id
            ticks = 0
            async for _ in survivor.snapshots():
                ticks += 1
                if ticks == 1:
                    await leaver.detach()
            return await survivor.result()

    result = asyncio.run(main())
    assert_traces_equal(result, standalone(short, n_monitors=1, seed=21),
                        ticks=len(result))


@pytest.mark.durability
def test_crash_recovery_resumes_cohort_bit_identical(tmp_path):
    """A checkpointing service dies mid-run; recovery finishes the run.

    With ``checkpoint_dir=`` the service writes a consistent
    (engine, member-windows) checkpoint after every non-final tick.
    Stopping the service with the cohort still live stands in for a
    process death — the checkpoint stays behind — and
    ``recover_cohorts``/``resume`` must finish each client's run
    bit-identical to never having died.
    """
    from repro.service import recover_cohorts

    profile = staircase([0.0, 60.0, 140.0], dwell_s=0.5)  # 1500 steps

    async def main():
        async with FleetService(tick_steps=400, max_pending=2,
                                checkpoint_dir=tmp_path) as service:
            a = await service.attach(profile, fleet=fast_fleet(2, 101))
            b = await service.attach(profile, fleet=fast_fleet(1, 202))
            # nobody consumes: the cohort stalls two ticks in, leaving a
            # checkpoint pairing the engine with both members' windows
            # at the 800-step cut
            await wait_until(lambda: b.done_steps >= 800)
            return a.client_id, b.client_id
        # __aexit__ stops the loop without discarding live cohorts

    id_a, id_b = asyncio.run(main())
    ckpt = tmp_path / "cohort-1.ckpt"
    assert ckpt.exists()

    (cohort,) = recover_cohorts(tmp_path)
    assert cohort.group_id == 1
    assert cohort.done == 800 and cohort.total_steps == 1500
    assert cohort.clients == [id_a, id_b]
    results = cohort.resume()
    assert_traces_equal(results[id_a],
                        standalone(profile, n_monitors=2, seed=101))
    assert_traces_equal(results[id_b],
                        standalone(profile, n_monitors=1, seed=202))
    assert not ckpt.exists()  # consumed on successful resume
    assert recover_cohorts(tmp_path) == []


def test_attach_fleet_conflicts_are_refused():
    from repro.runtime import FleetSpec

    spec = FleetSpec.homogeneous(1, seed=5, fast_calibration=True)

    async def main():
        async with FleetService() as service:
            # The n_monitors/seed alias is gone (6.0): nothing to mix.
            with pytest.raises(TypeError):
                await service.attach(hold(50.0, 0.5), fleet=spec,
                                     n_monitors=2)
            with pytest.raises(TypeError):
                await service.attach(hold(50.0, 0.5), fleet=spec, seed=9)
            with pytest.raises(TypeError):
                await service.attach(hold(50.0, 0.5), fleet=spec,
                                     snapshot_s=0.05)
            with pytest.raises(ConfigurationError):
                await service.attach(hold(50.0, 0.5), fleet=spec,
                                     record_every_n=0)
            return service.stats()

    stats = asyncio.run(main())
    assert stats["clients"] == 0  # failed attaches leave nothing behind


# -- tick-loop instrumentation (the live observability plane) -----------------


def test_tick_loop_instruments_registry_and_health_surface():
    """The tick loop feeds the registry; stats()/health() expose it.

    Asserted mid-run (stalled under backpressure, so the numbers are
    frozen): the ``service.tick.wall_s`` histogram, the per-cohort and
    global queue-depth gauges, the ``service.backpressure.stalls``
    counter, per-cohort ``queue_depth`` in stats, and the fused
    health-score surface on both the service and the client.
    """
    from repro import observability as obs
    from repro.observability import MetricsRegistry

    old_registry = obs.get_registry()
    obs.set_registry(MetricsRegistry(enabled=True))
    try:
        async def main():
            async with FleetService(tick_steps=500,
                                    max_pending=2) as service:
                client = await service.attach(PROFILE, fleet=fast_fleet(2, 5))
                await wait_until(
                    lambda: client.stream_depth == 2 and
                    service.stats()["backpressure_stalls"] > 0)
                mid_stats = service.stats()
                mid_health = service.health()
                client_health = client.health()
                async for _ in client.snapshots():
                    pass
                await client.result()
                final_stats = service.stats()
            return mid_stats, mid_health, client_health, final_stats

        mid_stats, mid_health, client_health, final_stats = \
            asyncio.run(main())
    finally:
        obs.set_registry(old_registry)

    gid = mid_stats["groups"][0]["group_id"]
    metrics = mid_stats["metrics"]
    # satellite instruments: tick wall-time histogram, queue gauges, stalls
    assert metrics["service.tick.wall_s"]["count"] >= 2
    assert metrics["service.tick.wall_s"]["sum"] > 0.0
    assert metrics["service.backpressure.stalls"]["value"] > 0
    assert metrics[f"service.group.{gid}.queue_depth"]["value"] == 2
    assert metrics["service.queue.depth"]["value"] == 2
    assert "service.health.worst" in metrics
    # stats rows carry the per-cohort queue depth directly
    assert mid_stats["groups"][0]["queue_depth"] == 2

    # the /health surface mid-run: live, uncongested, scored rigs
    assert mid_health["status"] == "ok" and mid_health["running"]
    assert mid_health["backpressure"]["stalls"] > 0
    assert mid_health["since_last_tick_s"] >= 0.0
    assert [r["rig"] for r in mid_health["worst_rigs"]] in \
        ([0, 1], [1, 0])  # sorted by score, 2 rigs attached
    assert all(0.0 <= r["score"] <= 1.0 for r in mid_health["worst_rigs"])

    # the client mirrors its own rig reports
    assert [r["rig"] for r in client_health] == [0, 1]
    assert all(r["windows"] >= 1 for r in client_health)

    # cohort completion retires the per-cohort gauge (bounded cardinality)
    assert f"service.group.{gid}.queue_depth" not in final_stats["metrics"]
    assert "service.tick.wall_s" in final_stats["metrics"]


def test_health_scoring_can_be_disabled():
    from repro import observability as obs

    assert not obs.get_registry().enabled  # scoring must not need metrics

    async def main():
        async with FleetService(tick_steps=1500,
                                health_scores=False) as service:
            client = await service.attach(hold(60.0, 1.5),
                                          fleet=fast_fleet(1, 3))
            await client.result()
            return client.health(), service.health()

    client_health, service_health = asyncio.run(main())
    assert client_health == []  # no trackers were ever created
    assert service_health["worst_rigs"] == []
    assert service_health["status"] == "ok"
