"""X1 — parallel-runtime throughput (serial vs config groups as jobs).

Times the same N=64 fleet — 4 config groups of 16 monitors, one job
each — through the serial :class:`MixedEngine` and the process-parallel
:class:`ShardedEngine` at 4 workers, asserts the two results are
bit-identical (the parity contract is part of the bench), and prints
the numbers with the machine fingerprint.

The ≥1.8x speedup bar only applies where it is physically attainable:
on hosts with fewer than 4 CPUs (CI smoke runners, 2-CPU containers)
worker overhead without spare cores cannot beat the serial engine, so
the test skips — no misleading speedup figure.  The 4-group layout has
not been measured on a host with 4 or more CPUs yet.
"""

import json
import os
import platform
import time

import numpy as np
import pytest

from repro.runtime import FleetSpec, MixedEngine, RunResult, ShardedEngine
from repro.station.profiles import hold
from repro.station.scenarios import build_calibrated_monitor

pytestmark = [pytest.mark.slow, pytest.mark.parallel]

N_MONITORS = 64
WORKERS = 4
#: One overtemperature per config group: 4 groups of 16 monitors.
OVERTEMPS = (5.0, 6.0, 7.0, 8.0)
DURATION_S = 2.0
SEED = 4242


def _fleet():
    seeds = FleetSpec.homogeneous(N_MONITORS, seed=SEED).monitor_seeds()
    per_group = N_MONITORS // len(OVERTEMPS)
    return [build_calibrated_monitor(
                seed=s, fast=True,
                overtemperature_k=OVERTEMPS[i // per_group]).rig
            for i, s in enumerate(seeds)]


def _machine():
    """The host fingerprint the printed figures carry.

    A throughput figure (or the absence of one) is meaningless without
    the machine it came from; downstream comparisons key on these.
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def test_x01_sharded_engine_throughput():
    """Serial vs 4 jobs on 4 workers at N=64 (the ≥1.8x bar)."""
    cpus = os.cpu_count() or 1
    if cpus < WORKERS:
        # Without spare cores a speedup figure would be noise, not
        # signal.
        pytest.skip(f"{cpus} CPU(s) < {WORKERS} workers: parallel "
                    f"speedup is not measurable on this host")

    profile = hold(50.0, DURATION_S)
    serial_rigs = _fleet()  # first build pays calibration; later are cached
    t0 = time.perf_counter()
    serial = MixedEngine(serial_rigs).run(profile)
    serial_s = time.perf_counter() - t0

    sharded_rigs = _fleet()
    engine = ShardedEngine(sharded_rigs, workers=WORKERS)
    assert engine.workers == WORKERS
    t0 = time.perf_counter()
    sharded = engine.run(profile)
    sharded_s = time.perf_counter() - t0

    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert np.array_equal(np.asarray(getattr(sharded, name)),
                              np.asarray(getattr(serial, name))), name

    samples = N_MONITORS * int(round(DURATION_S * 1000.0))
    stage = {
        "n_monitors": N_MONITORS,
        "groups": len(OVERTEMPS),
        "workers": WORKERS,
        **_machine(),
        "samples": samples,
        "serial_samples_per_s": samples / serial_s,
        "sharded_samples_per_s": samples / sharded_s,
        "speedup": serial_s / sharded_s,
        "bit_identical": True,
    }
    print(json.dumps({"parallel": stage}, indent=2))
    # With real cores to spread over, the jobs must pay for
    # themselves.
    assert stage["speedup"] >= 1.8, stage
    assert stage["sharded_samples_per_s"] > 0.0
