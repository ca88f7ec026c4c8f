"""Tests for the opt-in observability layer (metrics, tracing, events).

Covers the primitives in isolation, both exporter round-trips, the
instrumentation of the hot paths (batch engine, session lifecycle,
calibration cache, telemetry framing, scheduler), and the CLI
``--metrics-out`` flag.
"""

import json
import math

import pytest

from repro import observability as obs
from repro.errors import ConfigurationError
from repro.observability import (Event, EventLog, MetricsRegistry, Tracer,
                                 export_jsonl, export_prometheus,
                                 parse_jsonl, parse_prometheus,
                                 prometheus_name)
from repro.observability.export import (escape_label_value,
                                        unescape_label_value)


@pytest.fixture
def fresh():
    """Swap in fresh default registry/tracer/log; restore afterwards."""
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


# -- metrics ------------------------------------------------------------------


def test_counter_gauge_histogram_basics(fresh):
    registry, _, _ = fresh
    c = registry.counter("t.counter")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ConfigurationError):
        c.inc(-1)
    g = registry.gauge("t.gauge")
    g.set(2.5)
    g.set(1.5)
    assert g.value == 1.5
    h = registry.histogram("t.hist")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    assert h.count == 4 and h.sum == 10.0
    assert h.min == 1.0 and h.max == 4.0
    assert h.mean == 2.5
    assert h.quantile(0.5) == 2.0


def test_registry_get_or_create_is_idempotent(fresh):
    registry, _, _ = fresh
    assert registry.counter("same") is registry.counter("same")
    with pytest.raises(ConfigurationError):
        registry.gauge("same")  # kind morphing refused
    with pytest.raises(ConfigurationError):
        registry.counter("")  # bad name


def test_disabled_registry_mutations_are_noops():
    registry = MetricsRegistry(enabled=False)
    c = registry.counter("quiet.counter")
    h = registry.histogram("quiet.hist")
    g = registry.gauge("quiet.gauge")
    c.inc(100)
    h.observe(1.0)
    g.set(9.0)
    assert c.value == 0
    assert h.count == 0
    assert g.value == 0.0
    registry.enabled = True
    c.inc()
    assert c.value == 1


def test_histogram_reservoir_is_bounded(fresh):
    registry, _, _ = fresh
    h = registry.histogram("t.bounded", reservoir_size=8)
    for i in range(1000):
        h.observe(float(i))
    assert h.count == 1000          # exact stats over everything
    assert len(h._ring) == 8        # bounded memory
    assert h.quantile(1.0) == 999.0  # window holds the most recent values


def test_snapshot_is_json_safe(fresh):
    registry, _, _ = fresh
    registry.counter("a.count").inc(3)
    registry.gauge("a.gauge").set(0.5)
    registry.histogram("a.hist")  # empty: None fields, not NaN
    snap = registry.snapshot()
    text = json.dumps(snap)  # must not raise
    assert json.loads(text)["a.hist"]["p50"] is None
    assert snap["a.count"] == {"type": "counter", "value": 3}
    assert list(snap) == sorted(snap)


def test_registry_discard_retires_instruments(fresh):
    """Per-cohort instruments can be dropped to bound cardinality."""
    registry, _, _ = fresh
    registry.gauge("service.group.9.queue_depth").set(3)
    registry.counter("keep.me").inc()
    assert registry.discard("service.group.9.queue_depth") is True
    assert registry.discard("service.group.9.queue_depth") is False
    assert "service.group.9.queue_depth" not in registry.names()
    assert "keep.me" in registry.names()
    # re-registering after a discard starts from scratch
    assert registry.gauge("service.group.9.queue_depth").value == 0.0


# -- tracer -------------------------------------------------------------------


def test_spans_nest_and_feed_histograms(fresh):
    registry, tracer, _ = fresh
    with tracer.span("outer", label="x"):
        with tracer.span("inner"):
            pass
    records = {r.name: r for r in tracer.records()}
    assert records["inner"].parent == "outer"
    assert records["outer"].parent is None
    assert records["outer"].tags == {"label": "x"}
    assert records["inner"].duration_s >= 0.0
    snap = registry.snapshot()
    assert snap["span.outer.s"]["count"] == 1
    assert snap["span.inner.s"]["count"] == 1


def test_disabled_tracer_hands_out_null_span():
    tracer = Tracer(enabled=False)
    span_a = tracer.span("nothing")
    span_b = tracer.span("nothing.else")
    assert span_a is span_b  # shared singleton, zero allocation
    with span_a:
        pass
    assert tracer.records() == []


def test_tracer_history_is_bounded():
    tracer = Tracer(enabled=True, registry=MetricsRegistry(enabled=False))
    for i in range(20):
        with tracer.span(f"s{i}"):
            pass
    tracer_small = Tracer(enabled=True, max_spans=4,
                          registry=MetricsRegistry(enabled=False))
    for i in range(20):
        with tracer_small.span(f"s{i}"):
            pass
    assert len(tracer.records()) == 20
    assert len(tracer_small.records()) == 4


# -- events -------------------------------------------------------------------


def test_event_log_round_trip(fresh):
    _, _, log = fresh
    log.emit("unit.test", index=1, label="a")
    log.emit("unit.other", value=2.5)
    text = log.to_jsonl()
    back = EventLog.from_jsonl(text)
    assert [e.name for e in back] == ["unit.test", "unit.other"]
    assert back[0].fields == {"index": 1, "label": "a"}
    assert back[1].fields == {"value": 2.5}
    assert log.events("unit.test")[0].fields["index"] == 1


def test_event_log_disabled_and_malformed():
    log = EventLog(enabled=False)
    assert log.emit("quiet") is None
    assert log.events() == []
    with pytest.raises(ConfigurationError):
        EventLog.from_jsonl("not json\n")
    with pytest.raises(ConfigurationError):
        EventLog.from_jsonl('{"no_name": 1}\n')


# -- exporters ----------------------------------------------------------------


def _populated_registry():
    registry = MetricsRegistry(enabled=True)
    registry.counter("x.counter").inc(7)
    registry.gauge("x.gauge").set(1.25)
    h = registry.histogram("x.hist")
    for v in (0.5, 1.5, 2.5, 3.5):
        h.observe(v)
    return registry


def test_jsonl_export_round_trip():
    registry = _populated_registry()
    text = export_jsonl(registry)
    assert parse_jsonl(text) == registry.snapshot()


def test_jsonl_parse_rejects_garbage():
    with pytest.raises(ConfigurationError):
        parse_jsonl("{broken\n")
    line = json.dumps({"name": "dup", "type": "counter", "value": 1})
    with pytest.raises(ConfigurationError):
        parse_jsonl(line + "\n" + line + "\n")


def test_prometheus_export_round_trip():
    registry = _populated_registry()
    text = export_prometheus(registry)
    parsed = parse_prometheus(text)
    snap = registry.snapshot()
    assert parsed["x.counter"] == {"type": "counter", "value": 7}
    assert parsed["x.gauge"] == {"type": "gauge", "value": 1.25}
    hist = parsed["x.hist"]
    assert hist["count"] == snap["x.hist"]["count"]
    assert hist["sum"] == snap["x.hist"]["sum"]
    for key in ("p50", "p90", "p99"):
        assert hist[key] == snap["x.hist"][key]


def test_prometheus_name_sanitization():
    assert prometheus_name("runtime.batch.chunk_s") == \
        "repro_runtime_batch_chunk_s"
    assert prometheus_name("weird name!") == "repro_weird_name_"


def test_prometheus_parse_rejects_orphans():
    with pytest.raises(ConfigurationError):
        parse_prometheus("repro_unknown 1\n")


def test_prometheus_round_trips_nan_and_infinities():
    """Non-finite samples use the canonical exposition spellings."""
    registry = MetricsRegistry(enabled=True)
    registry.gauge("nf.nan").set(float("nan"))
    registry.gauge("nf.pos").set(float("inf"))
    registry.gauge("nf.neg").set(float("-inf"))
    text = export_prometheus(registry)
    assert "repro_nf_nan NaN" in text
    assert "repro_nf_pos +Inf" in text
    assert "repro_nf_neg -Inf" in text
    # Python's repr forms are NOT valid exposition samples.
    assert " nan" not in text and " inf" not in text
    parsed = parse_prometheus(text)
    assert math.isnan(parsed["nf.nan"]["value"])
    assert parsed["nf.pos"]["value"] == float("inf")
    assert parsed["nf.neg"]["value"] == float("-inf")


def test_prometheus_empty_registry_round_trips():
    empty = MetricsRegistry(enabled=True)
    assert export_prometheus(empty) == ""
    assert parse_prometheus("") == {}
    assert parse_jsonl(export_jsonl(empty)) == {}


def test_prometheus_label_value_escaping_round_trips():
    tricky = 'back\\slash "quoted"\nnewline'
    escaped = escape_label_value(tricky)
    assert "\n" not in escaped
    assert r"\\" in escaped and r"\"" in escaped and r"\n" in escaped
    assert unescape_label_value(escaped) == tricky
    # unknown escapes pass through rather than corrupting the value
    assert unescape_label_value(r"\q") == r"\q"


def test_prometheus_help_line_escapes_metric_names():
    """A dotted name with \\ or newline survives the HELP round trip."""
    snapshot = {"odd\\name\nwith newline": {"type": "counter", "value": 2}}
    text = export_prometheus(snapshot)
    assert text.count("\n") == len(text.splitlines())  # no line injection
    parsed = parse_prometheus(text)
    assert parsed == {"odd\\name\nwith newline":
                      {"type": "counter", "value": 2}}


def test_prometheus_parse_rejects_bad_sample_values():
    with pytest.raises(ConfigurationError):
        parse_prometheus("# HELP repro_x x\n# TYPE repro_x counter\n"
                         "repro_x notanumber\n")
    with pytest.raises(ConfigurationError):
        parse_prometheus("# HELP repro_x x\nrepro_x{quantile=\"0.5\"\n")


# -- global switches ----------------------------------------------------------


def test_default_observability_starts_disabled():
    # Process default: strictly opt-in (this also guards against tests
    # leaking an enabled state into the suite).
    assert not obs.enabled()


def test_observed_context_restores_state(fresh):
    registry, tracer, log = fresh
    obs.disable()
    assert not obs.enabled()
    with obs.observed() as reg:
        assert reg is registry
        assert obs.enabled() and tracer.enabled and log.enabled
    assert not obs.enabled()
    assert not tracer.enabled and not log.enabled


# -- instrumented hot paths ---------------------------------------------------


def test_instrumented_session_run_populates_metrics(fresh):
    registry, tracer, log = fresh
    from repro.runtime import FleetSpec, Session
    from repro.station.profiles import hold
    from repro.station.scenarios import clear_calibration_cache

    clear_calibration_cache()
    with Session(fleet=FleetSpec.homogeneous(
            2, seed=31, fast_calibration=True)) as session:
        session.calibrate()
        session.run(hold(60.0, 1.0))
        stats = session.stats()
    snap = registry.snapshot()
    # batch engine
    assert snap["runtime.batch.samples"]["value"] == 2 * 1000
    assert snap["runtime.batch.chunks"]["value"] >= 1
    assert snap["runtime.batch.chunk_s"]["count"] >= 1
    assert snap["runtime.batch.fleet_size"]["value"] == 2
    assert snap["runtime.batch.samples_per_s"]["value"] > 0
    # scheduler bulk accounting rode along
    assert snap["isif.scheduler.bulk_ticks"]["value"] >= 2 * 1000
    # calibration cache: 2 builds at calibrate; run() assembles from the
    # calibrations the session kept and never looks in the LRU
    assert snap["station.calibration_cache.misses"]["value"] == 2
    assert "station.calibration_cache.hits" not in snap
    # spans landed as histograms
    assert snap["span.session.calibrate.s"]["count"] == 1
    assert snap["span.session.run.s"]["count"] == 1
    assert snap["span.batch.run.s"]["count"] == 1
    # session accessor
    assert stats["state"] == "calibrated"
    assert stats["runs"] == 1
    assert set(stats["timings_s"]) == {"open_s", "calibrate_s", "run_s"}
    assert stats["calibration_cache"]["hits"] == 0
    assert stats["calibration_cache"]["misses"] == 2
    assert stats["metrics"]["runtime.batch.samples"]["value"] == 2000
    # lifecycle events
    states = [e.fields["state"] for e in log.events("session.state")]
    assert states == ["open", "calibrated", "closed"]


def test_observability_disabled_run_is_clean(fresh):
    registry, _, _ = fresh
    obs.disable()
    from repro.runtime import FleetSpec, Session
    from repro.station.profiles import hold

    with Session(fleet=FleetSpec.homogeneous(
            1, seed=32, fast_calibration=True)) as session:
        session.calibrate()
        session.run(hold(60.0, 0.5))
        stats = session.stats()
    assert registry.snapshot() == {}
    assert stats["metrics"] == {}
    # timings are session-local and always on
    assert stats["timings_s"]["run_s"] > 0.0


def test_scalar_cta_loop_counters(fresh):
    registry, _, _ = fresh
    from repro.conditioning.cta import CTAController
    from repro.isif.platform import ISIFPlatform
    from repro.sensor.maf import FlowConditions, MAFConfig, MAFSensor

    sensor = MAFSensor(MAFConfig(seed=5))
    controller = CTAController(sensor, ISIFPlatform.for_anemometer(seed=5))
    controller.settle(FlowConditions(speed_mps=1.0), 0.05)
    snap = registry.snapshot()
    assert snap["conditioning.cta.ticks"]["value"] == 50
    assert snap["conditioning.cta.settle_ticks"]["value"] == 50
    # saturated at startup while the supplies slew from the preset
    assert snap.get("conditioning.cta.pi_saturated_ticks",
                    {"value": 0})["value"] >= 0


def test_telemetry_channel_counters(fresh):
    registry, _, _ = fresh
    from repro.conditioning.monitor import FlowMeasurement
    from repro.conditioning.telemetry import TelemetryChannel
    from repro.isif.uart import UartLink

    ch = TelemetryChannel(UartLink(bit_error_rate=0.01, seed=13))
    for i in range(100):
        ch.send(FlowMeasurement(time_s=float(i), speed_mps=1.0,
                                direction=1, bubble_coverage=0.0,
                                valid=True))
    snap = registry.snapshot()
    assert snap["conditioning.telemetry.frames_sent"]["value"] == 100
    assert snap["conditioning.telemetry.frames_dropped"]["value"] == \
        ch.frames_dropped
    assert ch.frames_dropped > 0
    assert snap["conditioning.telemetry.crc_failures"]["value"] == \
        ch.crc_failures


def test_fleet_run_metrics_and_events(fresh):
    registry, _, log = fresh
    from repro.station.demand import DiurnalDemand
    from repro.station.fleet import MonitoredNetwork
    from repro.station.network import PipeNetwork

    net = PipeNetwork()
    net.add_pipe("reservoir", "A")
    net.add_pipe("A", "B", demand_m3_s=0.8e-3)
    fleet = MonitoredNetwork(net, seed=6)
    fleet.attach_demand("B", DiurnalDemand(0.8e-3, seed=7))
    fleet.commission(hours=1.0, snapshot_s=300.0)
    fleet.run(1.0, snapshot_s=120.0)
    snap = registry.snapshot()
    assert snap["station.fleet.snapshots"]["value"] == 30
    assert snap["span.fleet.run.s"]["count"] == 1
    assert log.events("fleet.run")[0].fields["snapshots"] == 30


def test_cli_metrics_out(tmp_path, capsys):
    from repro.cli import main

    out_jsonl = tmp_path / "metrics.jsonl"
    assert main(["--metrics-out", str(out_jsonl), "selftest"]) == 0
    parse_jsonl(out_jsonl.read_text())  # valid, possibly empty
    out_prom = tmp_path / "metrics.prom"
    assert main(["--metrics-out", str(out_prom), "selftest"]) == 0
    parse_prometheus(out_prom.read_text())
    assert "metrics written" in capsys.readouterr().out
    # the flag must not leave the process-wide default enabled for
    # library users who imported repro in the same interpreter
    obs.disable()
    assert not obs.enabled()
