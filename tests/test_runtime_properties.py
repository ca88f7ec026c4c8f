"""Property-based invariants for the sharded-runtime building blocks.

Hypothesis is an optional dev dependency: the whole module skips when it
is absent, so the tier-1 suite never depends on it.  The properties are
the algebra the parity tests rely on:

- :func:`partition_monitors` is a contiguous balanced partition, a
  pure function of ``(n, k)``;
- ``FleetSpec.monitor_seeds`` is shard-count invariant (the seed list
  depends only on the fleet seed and size, and any prefix is stable)
  with pairwise-distinct streams;
- ``RunResult.concat`` is the exact inverse of row-slicing, and
  ``from_records`` / ``trace`` round-trip losslessly.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.runtime import (FleetSpec, RunResult,  # noqa: E402
                           partition_monitors)

SETTINGS = settings(max_examples=50, deadline=None)


@st.composite
def _fleet_and_shards(draw):
    n = draw(st.integers(min_value=1, max_value=256))
    k = draw(st.integers(min_value=1, max_value=n))
    return n, k


@SETTINGS
@given(_fleet_and_shards())
def test_partition_covers_disjoint_contiguous_balanced(case):
    n, k = case
    bounds = partition_monitors(n, k)
    assert len(bounds) == k
    # Contiguous cover with no overlap: each slice starts where the
    # previous one stopped, from 0 to n.
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    for (_, stop), (start, _) in zip(bounds, bounds[1:]):
        assert start == stop
    sizes = [stop - start for start, stop in bounds]
    assert all(size >= 1 for size in sizes)
    assert max(sizes) - min(sizes) <= 1
    assert sorted(sizes, reverse=True) == sizes  # larger shards first
    # Pure function of (n, k).
    assert partition_monitors(n, k) == bounds


@SETTINGS
@given(st.integers(min_value=0, max_value=2**31 - 1),
       _fleet_and_shards())
def test_seed_spawning_is_shard_count_invariant(seed, case):
    n, m = case
    seeds = FleetSpec.homogeneous(n, seed=seed).monitor_seeds()
    assert len(seeds) == n
    assert len(set(seeds)) == n  # distinct per-monitor streams
    # Any prefix is stable: seeds depend on (seed, index) only, never
    # on the fleet size they were spawned for — a fleet of m shares its
    # leading monitors with a fleet of n.
    assert FleetSpec.homogeneous(m, seed=seed).monitor_seeds() == seeds[:m]
    assert FleetSpec.homogeneous(n, seed=seed).monitor_seeds() == seeds


def _random_result(rng, n, m):
    return RunResult(
        time_s=np.arange(m, dtype=float) * 0.02,
        **{name: rng.standard_normal((n, m))
           for name in RunResult.STACKED_FIELDS})


@SETTINGS
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=8))
def test_concat_inverts_row_slicing(seed, n, m):
    rng = np.random.default_rng(seed)
    whole = _random_result(rng, n, m)
    k = int(rng.integers(1, n + 1))
    parts = [RunResult(
        time_s=whole.time_s.copy(),
        **{name: np.asarray(getattr(whole, name))[start:stop].copy()
           for name in RunResult.STACKED_FIELDS})
        for start, stop in partition_monitors(n, k)]
    merged = RunResult.concat(parts)
    assert merged.n_monitors == n
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert np.array_equal(np.asarray(getattr(merged, name)),
                              np.asarray(getattr(whole, name))), name


@SETTINGS
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=8))
def test_from_records_trace_roundtrip(seed, n, m):
    rng = np.random.default_rng(seed)
    whole = _random_result(rng, n, m)
    rebuilt = RunResult.from_records(whole.records())
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert np.array_equal(np.asarray(getattr(rebuilt, name)),
                              np.asarray(getattr(whole, name))), name


def test_concat_refuses_mismatched_time_bases():
    from repro.errors import ConfigurationError
    rng = np.random.default_rng(0)
    a = _random_result(rng, 1, 4)
    b = _random_result(rng, 1, 4)
    b.time_s = b.time_s + 1.0
    with pytest.raises(ConfigurationError):
        RunResult.concat([a, b])
    with pytest.raises(ConfigurationError):
        RunResult.concat([])
