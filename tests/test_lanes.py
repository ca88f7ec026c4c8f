"""Engine lanes: rigs that join a running engine, and late service clients.

A lane is a set of rows that joined a batch engine at one step, with its
own profile clock and line plant (``BatchEngine.admit`` /
``MixedEngine.admit``).  The load-bearing claims: a joined row's traces
and written-back state are byte-identical to a run of its rigs alone
from their own step 0, whatever step it joined at and whoever leaves
before or after it; a lane joins only where the drive phase and the
decimation phase line up; and a service client attached to a running
cohort joins it as a lane, leaves at its own horizon, checkpoints and
recovers with its own offset, and is health-scored against its own lane.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.runtime import BatchEngine, FleetSpec, MixedEngine, RunResult
from repro.service import FleetService, recover_cohorts
from repro.station.profiles import staircase
from tests.state_parity import assert_state_parity

pytestmark = pytest.mark.service

PROFILE = staircase([20.0, 60.0, 40.0], dwell_s=0.5)  # 1500 steps at 1 kHz


def spec(n, seed, pulsed=False, **build):
    return FleetSpec.homogeneous(n, seed=seed, fast_calibration=True,
                                 use_pulsed_drive=pulsed, **build)


def standalone(fleet, steps):
    """A fleet's rigs alone on an engine of their own, from step 0."""
    return MixedEngine(fleet.materialize()).advance(PROFILE, steps)


def oracles(fleet, steps):
    """Scalar rigs of ``fleet`` advanced ``steps`` from their step 0."""
    rigs = fleet.materialize()
    for rig in rigs:
        rig.advance(PROFILE, steps)
    return rigs


def assert_same(a, b):
    assert np.array_equal(a.time_s, b.time_s)
    for name in RunResult.STACKED_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def stitch(windows):
    return RunResult.concat(windows, axis="time")


# -- engine lanes -------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(join=st.integers(0, 20).map(lambda k: 20 * k),
       cuts=st.lists(st.integers(1, 300), min_size=1, max_size=3),
       leaver=st.sampled_from(["none", "earlier", "later"]),
       tail=st.integers(1, 200))
def test_joined_lane_is_its_standalone_run(join, cuts, leaver, tail):
    """Rigs admitted at a recorded tick run bit for bit as they would
    alone, in traces and written-back state, and so do the rigs that
    were there before them; either member may leave first."""
    first, late = spec(2, 11), spec(1, 12)
    a_rigs, b_rigs = first.materialize(), late.materialize()
    engine = BatchEngine(a_rigs)
    a_windows, b_windows = [], []
    if join:
        a_windows.append(engine.advance(PROFILE, join))
    engine.admit(b_rigs)
    for cut in cuts:
        window = engine.advance(PROFILE, cut)
        a_windows.append(window.take(slice(0, 2)))
        b_windows.append(window.take(slice(2, 3)))
    shared = sum(cuts)
    a_steps, b_steps = join + shared, shared
    rows, rigs = [0, 1, 2], a_rigs + b_rigs
    if leaver == "earlier":
        engine.drop([0, 1])
        b_windows.append(engine.advance(PROFILE, tail))
        b_steps += tail
        rows, rigs = [2], b_rigs
    elif leaver == "later":
        engine.drop([2])
        a_windows.append(engine.advance(PROFILE, tail))
        a_steps += tail
        rows, rigs = [0, 1], a_rigs
    assert_same(stitch(a_windows), standalone(first, a_steps))
    assert_same(stitch(b_windows), standalone(late, b_steps))
    want = oracles(first, a_steps) + oracles(late, b_steps)
    assert_state_parity(engine, rigs, [want[r] for r in rows])
    assert [rig.offset for rig in rigs] == [
        a_steps if r < 2 else b_steps for r in rows]


def test_lanes_that_join_at_one_step_share_a_lane():
    """Rigs admitted before the engine's first step join its first lane:
    the engine's windows then carry one time base."""
    engine = MixedEngine(spec(1, 11).materialize())
    engine.admit(spec(1, 12).materialize())
    window = engine.advance(PROFILE, 400)
    assert np.array_equal(window.take([0, 1]).time_s, window.time_s)
    assert_same(window.take([0]), standalone(spec(1, 11), 400))
    assert_same(window.take([1]), standalone(spec(1, 12), 400))


def test_rows_of_two_lanes_do_not_share_a_time_axis():
    engine = MixedEngine(spec(1, 11).materialize())
    engine.advance(PROFILE, 200)
    engine.admit(spec(1, 12).materialize())
    window = engine.advance(PROFILE, 200)
    with pytest.raises(ConfigurationError):
        window.take([0, 1])
    # Each row's own trace carries its own axis.
    assert window.trace(1).time_s[0] == standalone(spec(1, 12), 20).time_s[0]


def test_new_config_group_joins_at_step_0_only():
    hot = spec(1, 13, overtemperature_k=7.0)
    engine = MixedEngine(spec(1, 11).materialize())
    engine.admit(hot.materialize())
    assert len(engine.groups) == 2
    window = engine.advance(PROFILE, 600)
    assert_same(window.take([1]), standalone(hot, 600))
    assert_same(window.take([0]), standalone(spec(1, 11), 600))

    running = MixedEngine(spec(1, 11).materialize())
    running.advance(PROFILE, 200)
    with pytest.raises(ConfigurationError) as refused:
        running.admit(hot.materialize() + spec(1, 12).materialize())
    assert refused.value.reason == "admit"
    assert running.n_monitors == 1 and len(running.groups) == 1


def test_pulsed_drive_joins_only_at_its_phase():
    engine = MixedEngine(spec(1, 11, pulsed=True).materialize())
    engine.admit(spec(1, 12, pulsed=True).materialize())  # step 0
    window = engine.advance(PROFILE, 500)
    assert_same(window.take([1]), standalone(spec(1, 12, pulsed=True), 500))
    with pytest.raises(ConfigurationError) as refused:
        engine.admit(spec(1, 13, pulsed=True).materialize())
    assert refused.value.reason == "admit"
    assert engine.n_monitors == 2


@pytest.mark.parallel
def test_admit_into_config_groups_run_as_parallel_jobs():
    """A group running as a worker job admits inside its blob."""
    hot = spec(1, 13, overtemperature_k=7.0)
    engine = MixedEngine(spec(1, 11).materialize() + hot.materialize(),
                         workers=2)
    first = engine.advance(PROFILE, 200)
    engine.admit(spec(1, 12).materialize())
    second = engine.advance(PROFILE, 200)
    assert_same(second.take([2]), standalone(spec(1, 12), 200))
    assert_same(stitch([first.take([1]), second.take([1])]),
                standalone(hot, 400))


# -- late service clients -----------------------------------------------------


async def snapshots_of(client):
    return [snap async for snap in client.snapshots()]


def test_late_client_joins_a_running_cohort_bit_for_bit():
    """A client attached after the cohort's first tick joins it as a
    lane; the earlier client's horizon falls mid-tick, so that tick is
    cut short, and each client leaves at its own horizon."""

    async def main():
        async with FleetService(tick_steps=700) as service:
            a = await service.attach(PROFILE, fleet=spec(2, 11))
            first = await a.snapshot()
            b = await service.attach(PROFILE, fleet=spec(1, 12))
            mid = service.stats()["groups"]
            snaps_a = [first, *await snapshots_of(a)]
            snaps_b = await snapshots_of(b)
            return (a, b, mid, snaps_a, snaps_b,
                    await a.result(), await b.result())

    a, b, mid, snaps_a, snaps_b, result_a, result_b = asyncio.run(main())
    assert a.group_id == b.group_id
    (cohort,) = mid
    assert cohort["lanes"] == 2 and cohort["members"] == 2
    assert cohort["total_steps"] == 700 + 1500
    assert [s.done_steps for s in snaps_a] == [700, 1400, 1500]
    assert [s.done_steps for s in snaps_b] == [700, 800, 1500]
    assert {s.total_steps for s in snaps_a + snaps_b} == {1500}
    assert a.done_steps == b.done_steps == 1500
    assert_same(result_a, standalone(spec(2, 11), 1500))
    assert_same(result_b, standalone(spec(1, 12), 1500))
    assert_same(stitch([s.window for s in snaps_b]), result_b)


@pytest.mark.parametrize("leaver", ["earlier", "later"])
def test_detach_from_a_two_lane_cohort(leaver):
    async def main():
        async with FleetService(tick_steps=300) as service:
            a = await service.attach(PROFILE, fleet=spec(1, 11))
            await a.snapshot()
            b = await service.attach(PROFILE, fleet=spec(1, 12))
            assert a.group_id == b.group_id
            gone, stays = (a, b) if leaver == "earlier" else (b, a)
            await stays.snapshot()
            partial = await gone.detach()
            await snapshots_of(stays)
            return gone.done_steps, partial, await a.result(), \
                await b.result()

    done, partial, result_a, result_b = asyncio.run(main())
    fleet = spec(1, 11) if leaver == "earlier" else spec(1, 12)
    assert done == (600 if leaver == "earlier" else 300)
    assert_same(partial, standalone(fleet, done))
    if leaver == "earlier":
        assert_same(result_b, standalone(spec(1, 12), 1500))
    else:
        assert_same(result_a, standalone(spec(1, 11), 1500))


def test_refused_joiners_start_their_own_cohorts():
    """A pulsed-drive client after the first tick, and a client whose
    config group is new to a running cohort, each start a cohort."""

    async def main():
        async with FleetService(tick_steps=500) as service:
            a = await service.attach(PROFILE, fleet=spec(1, 11, pulsed=True))
            await a.snapshot()
            pulsed = await service.attach(PROFILE,
                                          fleet=spec(1, 12, pulsed=True))
            await pulsed.snapshot()
            # Continuous drive is a config group new to both cohorts.
            b = await service.attach(PROFILE, fleet=spec(1, 13))
            await b.snapshot()
            hot = await service.attach(
                PROFILE, fleet=spec(1, 14, overtemperature_k=7.0))
            clients = (a, pulsed, b, hot)
            for client in clients:
                await snapshots_of(client)
            return clients, [await c.result() for c in clients]

    clients, results = asyncio.run(main())
    assert len({c.group_id for c in clients}) == 4
    fleets = (spec(1, 11, pulsed=True), spec(1, 12, pulsed=True),
              spec(1, 13), spec(1, 14, overtemperature_k=7.0))
    for fleet, result in zip(fleets, results):
        assert_same(result, standalone(fleet, 1500))


@pytest.mark.durability
def test_two_lane_cohort_recovers_with_each_members_offset(tmp_path):
    async def main():
        async with FleetService(tick_steps=400, max_pending=2,
                                checkpoint_dir=tmp_path) as service:
            a = await service.attach(PROFILE, fleet=spec(2, 101))
            await a.snapshot()
            b = await service.attach(PROFILE, fleet=spec(1, 202))
            # Nobody consumes: the cohort stalls with both streams full,
            # checkpointed at the 1200-step cut.
            while service.stats()["backpressure_stalls"] == 0:
                await asyncio.sleep(0)
            return a.client_id, b.client_id, b.done_steps

    id_a, id_b, b_done = asyncio.run(main())
    assert b_done == 800
    (cohort,) = recover_cohorts(tmp_path)
    assert (cohort.done, cohort.total_steps) == (1200, 400 + 1500)
    assert cohort.clients == [id_a, id_b]
    results = cohort.resume()
    assert_same(results[id_a], standalone(spec(2, 101), 1500))
    assert_same(results[id_b], standalone(spec(1, 202), 1500))
    assert recover_cohorts(tmp_path) == []


def test_joined_lane_is_scored_against_its_own_lane():
    """Health references are taken over one lane's rows: a joined
    client's scores equal those of the same rigs in a cohort of their
    own (tick boundaries line up: the join and the first horizon fall
    on them)."""
    profile = staircase([20.0, 60.0], dwell_s=0.7)  # 1400 steps

    async def serve(joined: bool):
        async with FleetService(tick_steps=700) as service:
            a = await service.attach(profile, fleet=spec(2, 31))
            if joined:
                await a.snapshot()
            else:
                await snapshots_of(a)
            b = await service.attach(profile, fleet=spec(2, 32))
            await asyncio.gather(snapshots_of(a), snapshots_of(b))
            assert (a.group_id == b.group_id) == joined
            return a.health(), b.health()

    assert asyncio.run(serve(True)) == asyncio.run(serve(False))
