"""Layer spans recorded from outside the program.

The traced run needs per-layer wall time without adding spans inside
``src/``.  :class:`Recorder` wraps the public functions and methods that
sit at each layer boundary (calibration, store, session, engines,
parallel dispatch, checkpoints, result merges, health scoring) for the
duration of a :meth:`Recorder.window`, records one span per call with
its parent, and puts every original back on exit.  Inside a window the
program's own opt-in registry and profiler are also on (fresh
instances, so their counts cover exactly the traced windows).

Spans live in memory; :func:`layer_metrics` folds them, the registry
and profiler snapshots, and the workload's own counters into the
``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Spans a service tick makes (seal, advance, health, summaries, stitch).
TICK_SPANS = ("mixed.build", "mixed.advance", "engine.build",
              "engine.advance", "health.update", "result.summary",
              "result.concat")

#: Kernel stages read from the program's profiler (wall seconds).
KERNEL_STAGES = ("plan", "ar1_block", "film", "chunk_loop")


@dataclass
class Span:
    """One recorded call: name, start, end, parent index, attributes."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _result_bytes(result) -> int:
    """Bytes held by a RunResult's arrays."""
    from repro import RunResult
    return int(result.time_s.nbytes + sum(
        getattr(result, name).nbytes for name in RunResult.STACKED_FIELDS))


class Recorder:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._active = False
        self.registry = None
        self.profiler = None

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Record ``name`` around the block while a window is open."""
        if not self._active:
            yield None
            return
        index = len(self.spans)
        record = Span(name, time.perf_counter(),
                      parent=self._stack[-1] if self._stack else None,
                      attrs=attrs)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, func, name, after=None):
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with recorder.span(name) as record:
                out = func(*args, **kwargs)
                if after is not None and record is not None:
                    after(record, args, kwargs, out)
                return out
        return wrapper

    def _targets(self):
        """``(owner, attribute, span name, after-hook, kind)`` to wrap."""
        import repro.runtime.checkpoint as checkpoint
        import repro.runtime.session as session
        import repro.station.scenarios as scenarios
        from repro import (ArtifactStore, BatchEngine, MixedEngine,
                           RunResult, ShardedEngine)
        from repro.station import RigHealthTracker

        def steps(record, args, kwargs, out):
            record.attrs["steps"] = int(args[2] if len(args) > 2
                                        else kwargs["steps"])
            record.attrs["monitors"] = out.n_monitors

        def file_bytes(record, args, kwargs, out):
            record.attrs["bytes"] = Path(out).stat().st_size

        def merged_bytes(record, args, kwargs, out):
            record.attrs["bytes"] = _result_bytes(out)

        return [
            (session, "build_calibrated_monitor", "calibration.build",
             None, "function"),
            (scenarios, "run_calibration", "calibration.campaign", None,
             "function"),
            (ArtifactStore, "get", "store.get", None, "method"),
            (ArtifactStore, "put", "store.put", None, "method"),
            (BatchEngine, "__init__", "engine.build", None, "method"),
            (BatchEngine, "advance", "engine.advance", steps, "method"),
            (MixedEngine, "__init__", "mixed.build", None, "method"),
            (MixedEngine, "advance", "mixed.advance", None, "method"),
            (ShardedEngine, "__init__", "parallel.build", None, "method"),
            (ShardedEngine, "advance", "parallel.advance", None, "method"),
            (ShardedEngine, "run", "parallel.advance", None, "method"),
            (checkpoint, "run_durable", "checkpoint.run", None, "function"),
            (checkpoint, "save_checkpoint", "checkpoint.save", file_bytes,
             "function"),
            (RunResult, "concat", "result.concat", merged_bytes,
             "classmethod"),
            (RunResult, "summary", "result.summary", None, "method"),
            (RigHealthTracker, "update", "health.update", None, "method"),
        ]

    @contextmanager
    def window(self):
        """Install the wrappers, a fresh registry and profiler; undo on exit.

        Windows accumulate: spans, registry counts and profiler stages
        from every window land in the same totals.
        """
        from repro.observability import (MetricsRegistry, Profiler,
                                         get_profiler, get_registry,
                                         observed, set_profiler,
                                         set_registry)
        saved = []
        for owner, attr, name, after, kind in self._targets():
            original = owner.__dict__[attr] if kind != "function" \
                else getattr(owner, attr)
            if kind == "classmethod":
                wrapped = classmethod(self._wrap(original.__func__, name,
                                                 after))
            else:
                wrapped = self._wrap(original, name, after)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        old_registry, old_profiler = get_registry(), get_profiler()
        if self.registry is None:
            self.registry = MetricsRegistry(enabled=False)
            self.profiler = Profiler(enabled=False)
        set_registry(self.registry)
        set_profiler(self.profiler)
        self._active = True
        try:
            with observed(profile=True):
                yield self
        finally:
            self._active = False
            set_registry(old_registry)
            set_profiler(old_profiler)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def total(self, *names: str) -> float:
        """Summed duration of the named spans.

        A span nested inside another span of the same names is skipped,
        so re-entrant layers are not counted twice.
        """
        return sum(s.duration for s in self.named(*names)
                   if not self.inside(s, names))

    def inside(self, span: Span, names) -> bool:
        """Whether an ancestor of ``span`` has one of ``names``."""
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def child_time(self) -> dict[int, float]:
        """Span index -> summed duration of its direct children."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
        return covered

    def counter(self, name: str) -> float:
        state = self.registry.snapshot().get(name) if self.registry else None
        return float(state["value"]) if state else 0.0

    def histogram(self, name: str) -> dict | None:
        state = self.registry.snapshot().get(name) if self.registry else None
        return state if state and state.get("count") else None


def median(values) -> float:
    """Median of ``values``; 0.0 for an empty sequence."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(rec: Recorder, *, roots: str, extra: dict) -> dict:
    """Fold the recorded spans into the ``per_layer`` metric values.

    ``roots`` names the benchmark's own request span (``session.run``
    on the fleet workloads, ``service.attach`` on the service); the
    workload passes what only it can measure in ``extra`` (service
    counters, the serial reference window, tracing overhead).
    """
    out: dict[str, float] = {}
    campaigns = [s.duration for s in rec.named("calibration.campaign")]
    hits = rec.counter("station.calibration_cache.hits")
    misses = rec.counter("station.calibration_cache.misses")
    out["calibration.calls"] = len(rec.named("calibration.build"))
    out["calibration.campaigns"] = len(campaigns)
    out["calibration.lru_hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    out["calibration.busy_s"] = sum(campaigns)
    out["calibration.campaign_p50_s"] = median(campaigns)

    out["store.hits"] = rec.counter("store.hits")
    out["store.writes"] = rec.counter("store.writes")
    out["store.busy_s"] = rec.total("store.get", "store.put")

    requests = [(i, s) for i, s in enumerate(rec.spans)
                if s.name == "session.run"]
    out["session.materialize_s"] = rec.total("calibration.build")
    children = rec.child_time()
    out["session.self_s"] = sum(s.duration - children.get(i, 0.0)
                                for i, s in requests)

    advances = rec.named("engine.advance")
    steps = sum(s.attrs.get("steps", 0) for s in advances)
    busy = sum(s.duration for s in advances)
    out["engine.build_s"] = rec.total("engine.build")
    out["engine.busy_s"] = busy
    out["engine.steps"] = steps
    out["engine.step_us"] = busy / steps * 1e6 if steps else 0.0
    out["engine.monitors"] = (sum(s.attrs["steps"] * s.attrs["monitors"]
                                  for s in advances) / steps
                              if steps else 0.0)
    stages = rec.profiler.report() if rec.profiler else {}
    for stage in KERNEL_STAGES:
        out[f"kernel.{stage}_s"] = stages.get(f"kernel.{stage}",
                                              {}).get("wall_s", 0.0)

    windows = [s.duration for s in rec.named("parallel.advance")]
    out["parallel.windows"] = len(windows)
    out["parallel.window_p50_s"] = median(windows)
    out["parallel.serial_window_p50_s"] = extra.pop(
        "parallel.serial_window_p50_s", 0.0)
    out["parallel.speedup"] = (out["parallel.serial_window_p50_s"]
                               / out["parallel.window_p50_s"]
                               if windows and
                               out["parallel.serial_window_p50_s"] else 0.0)
    out["parallel.fallbacks"] = rec.counter("shard.fallbacks")

    saves = rec.named("checkpoint.save")
    out["checkpoint.writes"] = len(saves)
    out["checkpoint.write_s"] = sum(s.duration for s in saves)
    out["checkpoint.bytes"] = sum(s.attrs.get("bytes", 0) for s in saves)

    merges = [s for s in rec.named("result.concat")
              if not rec.inside(s, ("result.concat",))]
    out["result.merge_s"] = sum(s.duration for s in merges)
    out["result.bytes"] = sum(s.attrs.get("bytes", 0) for s in merges)

    out["service.health_s"] = rec.total("health.update")
    attaches = [s.duration for s in rec.named("service.attach")]

    # Coverage: the share of the requests' wall time that the layer
    # spans below them account for.  The service has no single request
    # span; its busy time is attach calls plus the ticks the service's
    # own histogram timed, and the layers are the spans inside them.
    if roots == "session.run":
        wall = sum(s.duration for _, s in requests)
        covered = wall - out["session.self_s"]
    else:
        tick = rec.histogram("service.tick.wall_s")
        tick_wall = tick["sum"] if tick else 0.0
        attach_wall = sum(attaches)
        in_ticks = sum(s.duration for s in rec.spans
                       if s.parent is None and s.name in TICK_SPANS)
        attach_children = sum(children.get(i, 0.0)
                              for i, s in enumerate(rec.spans)
                              if s.name == roots)
        wall = tick_wall + attach_wall
        covered = in_ticks + attach_children
    out["trace.coverage"] = covered / wall if wall else 0.0
    out.update(extra)
    return out
