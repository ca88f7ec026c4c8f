"""X1 — sharded-runtime throughput (serial batch vs process shards).

Times the same N=64 fleet through the serial :class:`BatchEngine` and
the process-parallel :class:`ShardedEngine` at 4 workers, asserts the
two results are bit-identical (the parity contract is part of the
bench), and prints the numbers with the machine fingerprint.

The ≥1.8x speedup bar only applies where it is physically attainable:
on hosts with fewer than 4 CPUs (CI smoke runners, 2-CPU containers)
sharding overhead without spare cores cannot beat the serial engine, so
the test skips — no misleading speedup figure.
"""

import json
import os
import platform
import time

import numpy as np
import pytest

from repro.runtime import (BatchEngine, RunResult, ShardedEngine,
                           spawn_monitor_seeds)
from repro.station.profiles import hold
from repro.station.scenarios import build_calibrated_monitor

pytestmark = [pytest.mark.slow, pytest.mark.parallel]

N_MONITORS = 64
WORKERS = 4
DURATION_S = 2.0
SEED = 4242


def _fleet():
    return [build_calibrated_monitor(seed=s, fast=True).rig
            for s in spawn_monitor_seeds(SEED, N_MONITORS)]


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
    """Serial vs 4-way sharded run at N=64 (the ≥1.8x bar)."""
    cpus = os.cpu_count() or 1
    if cpus < WORKERS:
        # Without spare cores a speedup figure would be noise, not
        # signal.
        pytest.skip(f"{cpus} CPU(s) < {WORKERS} workers: sharded speedup "
                    f"is not measurable on this host")

    profile = hold(50.0, DURATION_S)
    serial_rigs = _fleet()  # first build pays calibration; later are cached
    t0 = time.perf_counter()
    serial = BatchEngine(serial_rigs).run(profile)
    serial_s = time.perf_counter() - t0

    sharded_rigs = _fleet()
    engine = ShardedEngine(sharded_rigs, workers=WORKERS)
    t0 = time.perf_counter()
    sharded = engine.run(profile)
    sharded_s = time.perf_counter() - t0

    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert np.array_equal(np.asarray(getattr(sharded, name)),
                              np.asarray(getattr(serial, name))), name

    samples = N_MONITORS * int(round(DURATION_S * 1000.0))
    stage = {
        "n_monitors": N_MONITORS,
        "workers": WORKERS,
        **_machine(),
        "samples": samples,
        "serial_samples_per_s": samples / serial_s,
        "sharded_samples_per_s": samples / sharded_s,
        "speedup": serial_s / sharded_s,
        "bit_identical": True,
    }
    print(json.dumps({"parallel": stage}, indent=2))
    # With real cores to spread over, sharding must pay for itself.
    assert stage["speedup"] >= 1.8, stage
    assert stage["sharded_samples_per_s"] > 0.0
