"""The batch engine instruments per chunk, never per sample.

A timing bar cannot see a cheap instrument left in the per-sample loop
(the fully instrumented engine has read faster than the plain one on a
noisy host), so this counts instead: with the metrics registry, the
tracer and the profiler all enabled, every registry metric lookup and
update, every span and every profiler accumulate over a
``BatchEngine.run`` is tallied.  One chunk costs the same count however
many samples it holds, and each further chunk adds the same count.
"""

from __future__ import annotations

import pytest

from repro import observability as obs
from repro.observability import MetricsRegistry, Profiler, Tracer
from repro.observability.metrics import Counter, Gauge, Histogram
from repro.runtime import BatchEngine
from repro.station.profiles import hold
from repro.station.scenarios import build_calibrated_monitor

#: The instrument entry points tallied: (owner class, method name).
HOOKS = ((MetricsRegistry, "counter"), (MetricsRegistry, "gauge"),
         (MetricsRegistry, "histogram"), (Counter, "inc"), (Gauge, "set"),
         (Histogram, "observe"), (Tracer, "span"), (Profiler, "add"))


@pytest.fixture
def tally(monkeypatch):
    """Enable every sink; count calls to each hook, by hook."""
    counts: dict[str, int] = {}

    def counting(cls, name):
        original = getattr(cls, name)

        def hook(self, *args, **kwargs):
            key = f"{cls.__name__}.{name}"
            counts[key] = counts.get(key, 0) + 1
            return original(self, *args, **kwargs)

        return hook

    registry = MetricsRegistry(enabled=True)
    old = (obs.get_registry(), obs.get_tracer(), obs.get_profiler())
    obs.set_registry(registry)
    obs.set_tracer(Tracer(registry=registry, enabled=True))
    obs.set_profiler(Profiler(registry=registry, enabled=True))
    for cls, name in HOOKS:
        monkeypatch.setattr(cls, name, counting(cls, name))
    try:
        yield counts
    finally:
        monkeypatch.undo()
        registry, tracer, profiler = old
        obs.set_registry(registry)
        obs.set_tracer(tracer)
        obs.set_profiler(profiler)


def _counts(tally, rig, steps, chunk):
    tally.clear()
    BatchEngine([rig], chunk_size=chunk).run(hold(50.0, steps / 1000.0))
    return dict(tally)


def test_instruments_grow_per_chunk_not_per_sample(tally):
    rigs = [build_calibrated_monitor(seed=s, fast=True).rig
            for s in (61, 62, 63, 64)]
    tally.clear()
    one_short = _counts(tally, rigs[0], 100, chunk=100)
    one_long = _counts(tally, rigs[1], 300, chunk=300)
    two = _counts(tally, rigs[2], 200, chunk=100)
    three = _counts(tally, rigs[3], 300, chunk=100)
    for hook in ("MetricsRegistry.histogram", "Histogram.observe",
                 "Counter.inc", "Tracer.span", "Profiler.add"):
        assert one_short.get(hook, 0) > 0, hook
    # One chunk: the same calls for 100 samples as for 300.
    assert one_long == one_short
    # Each further chunk adds the same calls, fewer than its samples.
    for hook in set(three) | set(one_short):
        per_chunk = two.get(hook, 0) - one_short.get(hook, 0)
        assert three.get(hook, 0) - two.get(hook, 0) == per_chunk, hook
        assert 0 <= per_chunk < 100, hook
