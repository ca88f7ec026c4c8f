"""Live HTTP-plane tests: endpoints, service wiring, streaming parity.

The server is stdlib-only (``http.server`` on a daemon thread), so the
tests scrape it with plain urllib.  The load-bearing acceptance claim
rides here: with the sampler and HTTP plane running, ``/metrics`` and
``/health`` serve live data from a resident :class:`FleetService`
*while the client's streamed result stays bit-identical* to a
standalone ``Session.run``.
"""

import asyncio
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import observability as obs
from repro.observability import (EventLog, MetricsRegistry, Tracer,
                                 parse_prometheus)
from repro.observability.live import LiveServer, SnapshotPipeline
from repro.observability.live.http import PROMETHEUS_CONTENT_TYPE
from repro.runtime import FleetSpec, RunResult, Session
from repro.service import FleetService
from repro.station.profiles import hold

pytestmark = [pytest.mark.live, pytest.mark.service]


@pytest.fixture
def fresh():
    """Fresh enabled default registry/tracer/log; restore afterwards."""
    old_reg = obs.get_registry()
    old_tr = obs.get_tracer()
    old_log = obs.get_event_log()
    registry = obs.set_registry(MetricsRegistry(enabled=True))
    tracer = obs.set_tracer(Tracer(enabled=True))
    log = obs.set_event_log(EventLog(enabled=True))
    yield registry, tracer, log
    obs.set_registry(old_reg)
    obs.set_tracer(old_tr)
    obs.set_event_log(old_log)


def get(url, path):
    """GET a path; returns (status, content_type, body_text)."""
    try:
        with urllib.request.urlopen(url + path, timeout=10.0) as response:
            return (response.status, response.headers.get("Content-Type"),
                    response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get("Content-Type"), \
            exc.read().decode("utf-8")


async def wait_until(predicate, timeout=30.0):
    """Yield to the service loop until ``predicate()`` holds, bounded."""

    async def poll():
        while not predicate():
            await asyncio.sleep(0)

    await asyncio.wait_for(poll(), timeout=timeout)


def standalone(profile, *, n_monitors, seed):
    with Session(fleet=FleetSpec.homogeneous(
            n_monitors, seed=seed, fast_calibration=True)) as session:
        session.calibrate()
        return session.run(profile)


# -- the server in isolation --------------------------------------------------


def test_endpoints_and_error_paths(fresh):
    registry, _, _ = fresh
    registry.counter("unit.count").inc(7)
    registry.histogram("unit.hist").observe(0.25)
    pipe = SnapshotPipeline(registry=registry, clock=lambda: 0.0)
    pipe.sample()
    ready = {"value": True}
    with LiveServer(registry=registry, pipeline=pipe,
                    health_source=lambda: {"status": "ok", "clients": 2},
                    ready_source=lambda: ready["value"]) as server:
        url = server.url
        assert server.running and server.port > 0

        status, ctype, body = get(url, "/metrics")
        assert status == 200 and ctype == PROMETHEUS_CONTENT_TYPE
        parsed = parse_prometheus(body)
        assert parsed["unit.count"] == {"type": "counter", "value": 7}
        assert parsed["unit.hist"]["count"] == 1

        status, ctype, body = get(url, "/health")
        assert status == 200 and ctype == "application/json"
        assert json.loads(body) == {"status": "ok", "clients": 2}

        assert get(url, "/ready")[:1] == (200,)
        ready["value"] = False
        status, _, body = get(url, "/ready")
        assert status == 503 and body == "not ready\n"

        status, _, body = get(url, "/snapshot?last=1")
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == 1
        assert payload["samples"][0]["delta"]["unit.count"]["value"] == 7

        assert get(url, "/snapshot?last=nope")[0] == 400
        assert get(url, "/nothing-here")[0] == 404
    assert not server.running


def test_snapshot_404_without_pipeline_and_default_sources(fresh):
    with LiveServer() as server:
        status, _, body = get(server.url, "/snapshot")
        assert status == 404 and "no snapshot pipeline" in body
        # Default sources: /health says ok, /ready says ready.
        assert json.loads(get(server.url, "/health")[2]) == {"status": "ok"}
        assert get(server.url, "/ready")[0] == 200


def test_health_source_exception_is_a_500_not_a_crash(fresh):
    def boom():
        raise RuntimeError("scorer down")
    with LiveServer(health_source=boom) as server:
        status, _, body = get(server.url, "/health")
        assert status == 500 and "RuntimeError" in body
        # the server survives and keeps serving other routes
        assert get(server.url, "/ready")[0] == 200


# -- wired into a resident FleetService ---------------------------------------


def test_service_live_plane_serves_mid_run_and_streams_stay_bit_exact(fresh):
    profile = hold(60.0, 10.0)  # 10000 steps

    async def main():
        async with FleetService(tick_steps=100, max_pending=3,
                                http_port=0, sample_every_s=0.02) as service:
            assert service.pipeline is not None and service.pipeline.running
            url = service.http_url
            assert url is not None
            client = await service.attach(profile, fleet=FleetSpec.homogeneous(
                    1, seed=9, fast_calibration=True))
            # Let the tick loop run unconsumed until backpressure provably
            # holds the run mid-flight, with sampler frames in the ring.
            await wait_until(
                lambda: client.stream_depth == 3 and
                service.stats()["backpressure_stalls"] > 0 and
                len(service.pipeline) >= 2)

            scrapes = {path: get(url, path) for path in
                       ("/metrics", "/health", "/ready", "/snapshot?last=4")}
            client_health = client.health()
            snaps = [snap async for snap in client.snapshots()]
            result = await client.result()
        return scrapes, client_health, snaps, result, service

    scrapes, client_health, snaps, result, service = asyncio.run(main())

    status, ctype, body = scrapes["/metrics"]
    assert status == 200 and ctype == PROMETHEUS_CONTENT_TYPE
    metrics = parse_prometheus(body)
    assert metrics["service.ticks"]["value"] > 0
    assert metrics["service.attaches"]["value"] == 1
    assert metrics["service.backpressure.stalls"]["value"] > 0
    assert metrics["service.tick.wall_s"]["count"] > 0
    assert metrics["service.queue.depth"]["value"] == 3
    assert metrics["service.group.1.queue_depth"]["value"] == 3
    assert "service.health.worst" in metrics

    status, _, body = scrapes["/health"]
    health = json.loads(body)
    assert status == 200
    assert health["status"] == "ok" and health["running"]
    assert health["clients"] == 1 and health["groups"] == 1
    assert health["backpressure"]["stalls"] > 0
    assert 0.0 <= health["backpressure"]["saturation"] < 0.9
    assert health["worst_rigs"] and \
        health["worst_rigs"][0]["rig"] == 0

    assert scrapes["/ready"][0] == 200

    status, _, body = scrapes["/snapshot?last=4"]
    snapshot = json.loads(body)
    assert status == 200 and 1 <= snapshot["count"] <= 4
    assert "service.tick.wall_s" in snapshot["metrics"]
    extras = [s["extra"] for s in snapshot["samples"]]
    assert any("service" in e and "health" in e for e in extras)

    # The client-side scoring surface mirrors the service's trackers.
    assert [r["rig"] for r in client_health] == [0]
    assert {"score", "status", "components"} <= set(client_health[0])

    # The acceptance bar: live plane on, streams bit-identical anyway.
    assert len(snaps) == 100 and len(result) == 500
    reference = standalone(profile, n_monitors=1, seed=9)
    assert np.array_equal(result.time_s, reference.time_s)
    for name in RunResult.STACKED_FIELDS:
        assert np.array_equal(getattr(result, name),
                              getattr(reference, name)), name

    # Teardown released the plane: socket closed, URL gone.
    assert service.http_url is None
    assert not service.pipeline.running


def test_http_port_implies_sampler_and_ready_tracks_lifecycle(fresh):
    async def main():
        service = FleetService(http_port=0)
        assert service.pipeline is None  # nothing before start
        await service.start()
        url = service.http_url
        ok_ready = get(url, "/ready")
        health = json.loads(get(url, "/health")[2])
        await service.stop()
        return service, ok_ready, health

    service, ok_ready, health = asyncio.run(main())
    # http_port alone implies the default 0.5 s sampler cadence.
    assert service.pipeline is not None
    assert service.pipeline.cadence_s == 0.5
    assert ok_ready[0] == 200
    assert health["status"] == "ok"
    assert health["worst_rigs"] == []
    assert service.http_url is None  # plane torn down with the service
