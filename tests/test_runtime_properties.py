"""Property-based invariants for the parallel-runtime building blocks.

Hypothesis is an optional dev dependency: the whole module skips when it
is absent, so the tier-1 suite never depends on it.  The properties are
the algebra the parity tests rely on:

- the job split (:func:`~repro.runtime.mixed.fleet_groups`, one job per
  config group) puts every row in exactly one job, orders the jobs by
  first occurrence, and is a pure function of the fleet — no worker
  count or scheduling enters it;
- ``FleetSpec.monitor_seeds`` is worker-count invariant (the seed list
  depends only on the fleet seed and size, and any prefix is stable)
  with pairwise-distinct streams;
- the permutation-aware ``RunResult.concat`` is the exact inverse of
  the job split, in any job completion order, and ``from_records`` /
  ``trace`` round-trip losslessly.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import repro.runtime.mixed as mixed  # noqa: E402
from repro.runtime import FleetSpec, RunResult  # noqa: E402

SETTINGS = settings(max_examples=50, deadline=None)

#: Fleets as config labels: rigs with equal labels build alike.
_LABELS = st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                   max_size=64)


class _Rig:
    """A stand-in rig whose signature is its config label."""

    def __init__(self, label: int) -> None:
        self.label = label


@contextmanager
def _labelled():
    """Group stand-in rigs by label instead of the real rig signature."""
    with mock.patch.object(mixed, "_signature", lambda rig: rig.label), \
            mock.patch.object(mixed, "config_group_key",
                              lambda rig: f"group-{rig.label}"):
        yield


def _jobs(labels: list[int]) -> list[list[int]]:
    with _labelled():
        return list(mixed.fleet_groups([_Rig(x) for x in labels]).values())


@st.composite
def _fleet_and_shards(draw):
    n = draw(st.integers(min_value=1, max_value=256))
    k = draw(st.integers(min_value=1, max_value=n))
    return n, k


@SETTINGS
@given(_LABELS)
def test_partition_covers_disjoint_contiguous_balanced(labels):
    """The job split: one job per config group, every row in exactly
    one job, jobs in first-occurrence order, rows in caller order."""
    jobs = _jobs(labels)
    assert sorted(row for job in jobs for row in job) == \
        list(range(len(labels)))
    assert len(jobs) == len(set(labels))
    for job in jobs:
        assert job == sorted(job)
        assert {labels[row] for row in job} == {labels[job[0]]}
    firsts = [job[0] for job in jobs]
    assert firsts == sorted(firsts)
    assert [labels[row] for row in firsts] == list(dict.fromkeys(labels))
    # A pure function of the fleet.
    assert _jobs(labels) == jobs


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
@given(st.integers(min_value=0, max_value=2**31 - 1), _LABELS,
       st.integers(min_value=1, max_value=8))
def test_concat_inverts_row_slicing(seed, labels, m):
    """Per-job row blocks merge back into the whole fleet, whatever
    order the jobs finished in."""
    rng = np.random.default_rng(seed)
    whole = _random_result(rng, len(labels), m)
    jobs = _jobs(labels)
    parts = [RunResult(
        time_s=whole.time_s.copy(),
        **{name: np.asarray(getattr(whole, name))[job].copy()
           for name in RunResult.STACKED_FIELDS})
        for job in jobs]
    order = rng.permutation(len(jobs))
    for permutation in (range(len(jobs)), order):
        merged = RunResult.concat([parts[j] for j in permutation],
                                  axis="fleet",
                                  indices=[jobs[j] for j in permutation])
        assert merged.n_monitors == len(labels)
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
