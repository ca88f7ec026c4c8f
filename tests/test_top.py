"""`repro top` dashboard tests: pure rendering plus the poll loop.

``render_top`` is a pure function over ``/snapshot``/``/health``
payload dicts, so the layout is pinned without sockets; ``run_top`` is
exercised once against a real :class:`LiveServer` and once against a
dead port (the failure path must terminate with a nonzero code).
"""

import pytest

from repro import observability as obs
from repro.observability import EventLog, MetricsRegistry, Tracer
from repro.observability.live import LiveServer, SnapshotPipeline
from repro.observability.live.top import (fetch_frame, render_top,
                                          run_top)

pytestmark = pytest.mark.live


@pytest.fixture
def fresh():
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


def sample(seq, t_s, *, delta=None, service=None):
    entry = {"seq": seq, "t_s": t_s, "delta": delta or {}, "extra": {}}
    if service is not None:
        entry["extra"]["service"] = service
    return entry


def group(gid, done, *, fleet=2, queue=1):
    return {"group_id": gid, "members": 1, "fleet_size": fleet,
            "lanes": 1, "done_steps": done, "total_steps": 3000,
            "queue_depth": queue}


def test_render_empty_payloads_is_graceful():
    text = render_top({}, None)
    assert "repro top" in text
    assert "status: unknown" in text
    assert "no active cohorts" in text
    assert "tick latency: warming up" in text
    assert "worst rigs" not in text


def test_render_full_frame_rates_latency_and_worst_rigs():
    hist = {"type": "histogram", "count": 4, "sum": 0.02,
            "min": 0.004, "max": 0.007,
            "reservoir": [0.004, 0.005, 0.005, 0.007], "reservoir_size": 64}
    snapshot = {
        "count": 2, "retention": 240,
        "metrics": {},
        "samples": [
            sample(0, 10.0, service={"groups": [group(1, 700)]}),
            sample(1, 12.0,
                   delta={"service.samples":
                          {"type": "counter", "value": 2800},
                          "service.ticks": {"type": "counter", "value": 2},
                          "service.tick.wall_s": hist},
                   service={"groups": [group(1, 2100)]}),
        ],
    }
    health = {"status": "ok", "clients": 3, "groups": 1,
              "backpressure": {"stalls": 2, "ticks": 8, "saturation": 0.2},
              "worst_rigs": [
                  {"client": 4, "rig": 1, "score": 0.91, "status": "fault"},
                  {"client": 2, "rig": 0, "score": 0.05, "status": "healthy"},
              ]}
    text = render_top(snapshot, health, url="http://127.0.0.1:9")
    assert "repro top - http://127.0.0.1:9" in text
    assert "status: ok   clients: 3   groups: 1" in text
    assert "samples in ring: 2/240" in text
    assert "backpressure: stalls=2 saturation=20.0%" in text
    # counter deltas over the 2 s span: 2800/2 samples, 2/2 ticks
    assert "throughput: 1.4k samples/s   1 ticks/s" in text
    # nearest-rank percentiles of the freshest reservoir, in ms
    assert "tick p50 5.00 ms" in text and "p99 7.00 ms" in text
    # cohort row: (2100-700) steps x fleet 2 over 2 s = 1.4k samples/s
    assert "cohort" in text and "progress" in text
    row = next(line for line in text.splitlines()
               if line.strip().startswith("1 "))
    assert "2100/3000" in row and "1.4k" in row
    # worst rigs, highest score first
    assert "worst rigs (fused health score):" in text
    assert "client=4 rig=1 score=0.910 [fault]" in text


def test_render_single_sample_has_no_rates_yet():
    snapshot = {"count": 1, "retention": 240, "metrics": {},
                "samples": [sample(0, 1.0,
                                   service={"groups": [group(7, 100)]})]}
    text = render_top(snapshot, {"status": "ok"})
    assert "throughput: - samples/s" in text  # needs two samples for a rate
    row = next(line for line in text.splitlines()
               if line.strip().startswith("7 "))
    assert "100/3000" in row and row.rstrip().endswith("-")


def test_render_falls_back_to_cumulative_reservoir():
    snapshot = {"count": 1, "retention": 8,
                "metrics": {"service.tick.wall_s": {
                    "type": "histogram", "count": 1, "sum": 0.01,
                    "min": 0.01, "max": 0.01, "reservoir": [0.01],
                    "reservoir_size": 64}},
                "samples": [sample(0, 0.0)]}
    text = render_top(snapshot, {})
    assert "tick p50 10.00 ms" in text


def test_run_top_once_against_a_live_server(fresh):
    registry, _, _ = fresh
    registry.counter("service.samples").inc(100)
    pipe = SnapshotPipeline(registry=registry, clock=lambda: 0.0)
    pipe.sample()
    frames = []
    with LiveServer(registry=registry, pipeline=pipe,
                    health_source=lambda: {"status": "ok", "clients": 1,
                                           "groups": 0}) as server:
        frame = fetch_frame(server.url, last=3)
        code = run_top(server.url, once=True, out=frames.append,
                       clear=False)
    assert code == 0
    assert frame["health"]["status"] == "ok"
    assert frame["snapshot"]["count"] == 1
    assert len(frames) == 1
    assert "status: ok   clients: 1" in frames[0]
    assert "\x1b" not in frames[0]  # clear=False -> no ANSI control codes


def test_run_top_reports_fetch_failure_with_nonzero_exit():
    lines = []
    # A dead localhost port: connection refused on the first poll.
    code = run_top("http://127.0.0.1:9", once=True, out=lines.append,
                   clear=False)
    assert code == 1
    assert len(lines) == 1 and "fetch failed" in lines[0]
