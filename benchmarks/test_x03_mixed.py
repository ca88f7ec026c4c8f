"""X3 — mixed-fleet throughput (group-by-config vs per-group serial).

Times the same 8-rig, 4-config-group fleet through the
:class:`~repro.runtime.mixed.MixedEngine` (which partitions the fleet
into config-equivalence groups, runs each group on its own
:class:`BatchEngine`, and interleaves the ragged blocks back into
caller order) and through the obvious baseline — one serial
:class:`BatchEngine` pass per group, summed.  Asserts every rig's
mixed-run rows are bit-identical to its rows from the group run alone
(the parity contract is part of the bench), and prints the numbers.

The bar: the group split plus the ragged merge must stay bookkeeping —
the mixed pass may not cost more than ~1.5x the summed per-group runs.
"""

import json
import time

import numpy as np
import pytest

from repro.runtime import (BatchEngine, MixedEngine, RunResult,
                           spawn_monitor_seeds)
from repro.runtime.mixed import fleet_groups
from repro.station.profiles import hold
from repro.station.scenarios import build_calibrated_monitor

pytestmark = pytest.mark.slow

N_MONITORS = 8
OVERTEMPERATURES_K = (5.0, 6.0, 7.0, 8.0)  # 4 config groups, interleaved
DURATION_S = 2.0
SEED = 31000


def _fleet():
    seeds = spawn_monitor_seeds(SEED, N_MONITORS)
    return [build_calibrated_monitor(
                seed=s, fast=True,
                overtemperature_k=OVERTEMPERATURES_K[
                    i % len(OVERTEMPERATURES_K)]).rig
            for i, s in enumerate(seeds)]


def test_x03_mixed_engine_throughput():
    """Mixed vs per-group serial at 8 rigs / 4 groups; appends the stage."""
    profile = hold(50.0, DURATION_S)

    # Per-group serial baseline: one BatchEngine pass per config group,
    # in caller order within each group (first build pays calibration;
    # the mixed pass below reuses the cache).
    baseline_rigs = _fleet()
    groups = fleet_groups(baseline_rigs)
    t0 = time.perf_counter()
    group_runs = {key: BatchEngine([baseline_rigs[p] for p in positions])
                  .run(profile)
                  for key, positions in groups.items()}
    serial_s = time.perf_counter() - t0

    mixed_rigs = _fleet()
    engine = MixedEngine(mixed_rigs)
    t0 = time.perf_counter()
    mixed = engine.run(profile)
    mixed_s = time.perf_counter() - t0

    # Parity is part of the bench: each rig's mixed rows are exactly
    # its rows from running its config group alone.
    assert len(groups) == len(OVERTEMPERATURES_K)
    for key, positions in groups.items():
        alone = group_runs[key]
        for rank, position in enumerate(positions):
            for name in RunResult.STACKED_FIELDS:
                assert np.asarray(getattr(mixed, name))[position].tobytes() \
                    == np.asarray(getattr(alone, name))[rank].tobytes(), \
                    (name, position)
    assert np.array_equal(np.asarray(mixed.time_s),
                          np.asarray(next(iter(group_runs.values())).time_s))

    samples = N_MONITORS * int(round(DURATION_S * 1000.0))
    stage = {
        "n_monitors": N_MONITORS,
        "config_groups": len(groups),
        "samples": samples,
        "serial_samples_per_s": samples / serial_s,
        "mixed_samples_per_s": samples / mixed_s,
        "grouping_overhead": mixed_s / serial_s,
        "bit_identical": True,
    }
    print(json.dumps({"mixed": stage}, indent=2))

    # The split/merge must stay bookkeeping, not a second physics pass.
    assert stage["grouping_overhead"] <= 1.5, stage
