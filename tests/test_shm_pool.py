"""Fallback accounting first pinned for the retired shared-memory pool.

``run`` owns parent-side state, so a worker that dies on every attempt
degrades exactly its own job to in-process serial; the run completes
bit-identically and ``shard.fallbacks`` counts that one job.  The
shared-memory pool is gone; the contract holds for the one parallel
backend and is kept here under its original name, on a fleet of two
config groups (two jobs).
"""

import numpy as np
import pytest

from repro.runtime import FleetSpec, MixedEngine, RunResult, ShardedEngine
from repro.runtime.faults import FAULT_ENV
from repro.station.profiles import hold
from repro.station.scenarios import build_calibrated_monitor

pytestmark = pytest.mark.parallel

SEED = 777
PROFILE = hold(60.0, 1.5)


def _fleet(n, seed=SEED):
    """``n`` rigs alternating between two config groups."""
    return [build_calibrated_monitor(
                seed=s, fast=True, overtemperature_k=7.0 if i % 2 else 5.0).rig
            for i, s in enumerate(
                FleetSpec.homogeneous(n, seed=seed).monitor_seeds())]


def _assert_bit_identical(a, b):
    assert np.array_equal(np.asarray(a.time_s), np.asarray(b.time_s))
    for name in RunResult.STACKED_FIELDS:
        assert np.array_equal(np.asarray(getattr(a, name)),
                              np.asarray(getattr(b, name))), name


def test_run_fallback_counts_shards(monkeypatch):
    """One crashing job of two falls back once; the run completes."""
    from repro import observability as obs
    from repro.observability import MetricsRegistry

    monkeypatch.setenv(FAULT_ENV, "crash:1")
    reference = MixedEngine(_fleet(2)).run(PROFILE)
    old = obs.get_registry()
    registry = obs.set_registry(MetricsRegistry(enabled=True))
    try:
        with ShardedEngine(_fleet(2), workers=2) as engine:
            result = engine.run(PROFILE)
        fallbacks = registry.counter("shard.fallbacks").value
    finally:
        obs.set_registry(old)
    _assert_bit_identical(result, reference)
    assert fallbacks == 1
