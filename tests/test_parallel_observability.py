"""Cross-process observability through the parallel runtime.

The acceptance surface of the telemetry harvest: a parallel
``Session.run`` / ``ShardedEngine.run`` with observability enabled must
yield one merged registry containing the workers' ``runtime.*`` /
``kernel.*`` metrics with exact totals, a span forest whose worker
spans nest under the parent's ``shard.run`` span, merged profiler
reports, and identical metric-name sets whether jobs ran in worker
processes, were retried, or fell back to the in-process serial path.
Each fleet here has one config group per rig, so every rig is a job of
its own.
"""

import numpy as np
import pytest

from repro import observability as obs
from repro.observability import (EventLog, MetricsRegistry, Profiler, Tracer,
                                 export_jsonl, export_spans_jsonl,
                                 parse_jsonl, parse_spans_jsonl, span_tree)
from repro.runtime import (FleetSpec, RigSpec, RunResult, Session,
                           ShardedEngine)
from repro.runtime.faults import FAULT_ENV
from repro.runtime.kernels import PROFILE_STAGES
from repro.station.profiles import hold
from repro.station.scenarios import (build_calibrated_monitor,
                                     clear_calibration_cache)

pytestmark = pytest.mark.parallel

PROFILE = hold(50.0, 1.0)
SEED = 77
#: One overtemperature per config group.
OVERTEMPS = (5.0, 7.0, 6.0, 8.0)


def _fleet(n=3):
    """``n`` rigs, each its own config group (one job per rig)."""
    return [build_calibrated_monitor(seed=s, fast=True,
                                     overtemperature_k=t).rig
            for s, t in zip(FleetSpec.homogeneous(
                n, seed=SEED).monitor_seeds(), OVERTEMPS)]


@pytest.fixture
def fresh():
    """Fresh enabled sinks (registry, tracer, events, profiler)."""
    old = (obs.get_registry(), obs.get_tracer(), obs.get_event_log(),
           obs.get_profiler())
    registry = obs.set_registry(MetricsRegistry(enabled=True))
    tracer = obs.set_tracer(Tracer(registry=registry, enabled=True))
    log = obs.set_event_log(EventLog(enabled=True))
    profiler = obs.set_profiler(Profiler(registry=registry, enabled=True))
    yield registry, tracer, log, profiler
    obs.set_registry(old[0])
    obs.set_tracer(old[1])
    obs.set_event_log(old[2])
    obs.set_profiler(old[3])


def test_sharded_session_merges_worker_telemetry(fresh):
    registry, tracer, _, _ = fresh
    clear_calibration_cache()
    fleet = FleetSpec(rigs=tuple(
        RigSpec(count=1, fast_calibration=True, overtemperature_k=t)
        for t in OVERTEMPS), seed=SEED)
    with Session(fleet=fleet) as session:
        session.calibrate()
        result = session.run(hold(50.0, 1.0), workers=4)
    snap = registry.snapshot()
    # Worker-origin runtime metrics, merged exactly: 4 jobs x 1
    # monitor x 1000 samples — any double count breaks the total.
    assert snap["runtime.batch.samples"]["value"] == 4 * 1000
    assert snap["span.batch.run.s"]["count"] == 4
    assert snap["span.shard.worker.s"]["count"] == 4
    # The merged export carries the worker series.
    exported = parse_jsonl(export_jsonl(registry))
    assert exported["runtime.batch.samples"]["value"] == 4000
    # Span forest: session.run -> shard.run -> 4 x shard.worker, each
    # worker span parenting that worker's batch.run.
    records = tracer.records()
    shard_run = next(r for r in records if r.name == "shard.run")
    workers = [r for r in records if r.name == "shard.worker"]
    assert len(workers) == 4
    assert all(w.parent_id == shard_run.span_id for w in workers)
    assert all(w.trace_id == shard_run.trace_id for w in workers)
    batch_runs = [r for r in records if r.name == "batch.run"]
    assert {b.parent_id for b in batch_runs} == {w.span_id for w in workers}
    roots = span_tree(records)
    session_run = next(n for n in roots if n["name"] == "session.run")
    (shard_node,) = session_run["children"]
    assert shard_node["name"] == "shard.run"
    assert [c["name"] for c in shard_node["children"]] == ["shard.worker"] * 4
    # The full tree survives a JSONL round trip.
    assert parse_spans_jsonl(export_spans_jsonl(records)) == records
    # Profiler reports merged from the workers onto the result.
    report = result.profile()
    assert set(report) == set(PROFILE_STAGES)
    assert report["kernel.film"]["calls"] == 4 * 1000


def test_profile_histograms_ride_the_metrics_merge(fresh):
    registry, _, _, _ = fresh
    engine = ShardedEngine(_fleet(), workers=3)
    result = engine.run(PROFILE)
    names = registry.names()
    for stage in PROFILE_STAGES:
        assert f"profile.{stage}.wall_s" in names, stage
    # Three job engines, one film call per sample step each.
    assert result.profile()["kernel.film"]["calls"] == 3 * 1000


def _metric_names(run_engine, monkeypatch, fault=None):
    """Run under a full fresh sink set; return (result, metric names).

    A complete swap matters: the tracer and profiler feed ``span.*`` /
    ``profile.*`` histograms into *their* registry, so reusing the
    fixture's sinks with a new registry would route the in-process
    fallback's histograms somewhere else than the worker harvest merge.
    """
    registry = obs.set_registry(MetricsRegistry(enabled=True))
    obs.set_tracer(Tracer(registry=registry, enabled=True))
    obs.set_profiler(Profiler(registry=registry, enabled=True))
    if fault is not None:
        monkeypatch.setenv(FAULT_ENV, fault)
    else:
        monkeypatch.delenv(FAULT_ENV, raising=False)
    result = run_engine()
    monkeypatch.delenv(FAULT_ENV, raising=False)
    return result, set(registry.names())


def test_fallback_and_worker_paths_emit_same_metric_names(
        fresh, monkeypatch):
    """Satellite check: serial fallback keeps the metric surface.

    A run whose job crashes into the in-process fallback must
    publish the same merged metric names as a clean worker run — plus,
    at most, the degradation counters themselves.
    """
    clean_engine = ShardedEngine(_fleet(), workers=3, max_retries=0)
    clean, clean_names = _metric_names(
        lambda: clean_engine.run(PROFILE), monkeypatch)
    faulty_engine = ShardedEngine(_fleet(), workers=3, max_retries=0)
    fallen, fallback_names = _metric_names(
        lambda: faulty_engine.run(PROFILE), monkeypatch, fault="crash:1")
    for name in RunResult.STACKED_FIELDS:
        assert np.array_equal(np.asarray(getattr(clean, name)),
                              np.asarray(getattr(fallen, name))), name
    assert clean_names <= fallback_names
    assert fallback_names - clean_names <= {"shard.retries",
                                            "shard.fallbacks"}


def test_retried_shard_counts_samples_exactly_once(
        fresh, monkeypatch, tmp_path):
    """A crash-once job retries successfully without double-counting.

    Only the successful attempt's harvest ships home: the totals must
    equal the clean-run totals even though job 0 ran twice.
    """
    registry, _, _, _ = fresh
    monkeypatch.setenv(FAULT_ENV, f"crash-once:0:{tmp_path}")
    engine = ShardedEngine(_fleet(), workers=3, max_retries=2)
    engine.run(PROFILE)
    snap = registry.snapshot()
    assert (tmp_path / "shard0.tripped").exists()
    assert snap["shard.retries"]["value"] >= 1
    assert snap["runtime.batch.samples"]["value"] == 3 * 1000
    assert snap["span.shard.worker.s"]["count"] == 3


def test_disabled_observability_sharded_run_stays_clean(fresh):
    registry, tracer, log, profiler = fresh
    obs.disable()
    engine = ShardedEngine(_fleet(), workers=3)
    result = engine.run(PROFILE)
    assert registry.snapshot() == {}
    assert tracer.records() == []
    assert log.events() == []
    assert profiler.report() == {}
    assert result.profile() == {}


def test_sharded_fleet_characterize_emits_event(fresh):
    _, _, log, _ = fresh
    from repro.station.fleet import characterize_meter_pool

    clear_calibration_cache()
    pool = FleetSpec.homogeneous(2, seed=SEED, use_pulsed_drive=False,
                                 fast_calibration=True)
    characterize_meter_pool(pool, workers=2, duration_s=2.0, settle_s=0.5)
    events = log.events("fleet.characterize")
    assert len(events) == 1
    assert events[0].fields["n_meters"] == 2
    assert events[0].fields["workers"] == 2
