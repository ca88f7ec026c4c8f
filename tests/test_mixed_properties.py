"""Property-based invariants for the ragged mixed-fleet merge.

The MixedEngine's correctness reduces to one algebraic fact: for any
partition of ``range(n)`` into groups, slicing a fleet result into the
group blocks and re-merging them with the permutation-aware
``RunResult.concat(axis="fleet", indices=...)`` is the identity.  These
properties pin that algebra on synthetic results, independent of the
physics, so a merge regression fails here in milliseconds instead of
surfacing as a parity diff after a full engine run.

Hypothesis is an optional dev dependency: the module skips without it.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.errors import ConfigurationError  # noqa: E402
from repro.runtime import RunResult  # noqa: E402

SETTINGS = settings(max_examples=50, deadline=None)


def _random_result(rng, n, m, t0=0.0):
    return RunResult(
        time_s=t0 + np.arange(m, dtype=float) * 0.02,
        **{name: rng.standard_normal((n, m))
           for name in RunResult.STACKED_FIELDS})


@st.composite
def _partition_case(draw):
    """A fleet size, a random partition of its rows, and a time length."""
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=n))
    assignment = [draw(st.integers(min_value=0, max_value=k - 1))
                  for _ in range(n)]
    groups = [[i for i, g in enumerate(assignment) if g == which]
              for which in range(k)]
    groups = [g for g in groups if g]  # drop empty groups
    m = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, groups, m, seed


@SETTINGS
@given(_partition_case())
def test_partition_then_interleave_is_identity(case):
    n, groups, m, seed = case
    rng = np.random.default_rng(seed)
    whole = _random_result(rng, n, m)
    blocks = [whole.take(g) for g in groups]
    merged = RunResult.concat(blocks, axis="fleet", indices=groups)
    assert merged.n_monitors == n
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert np.asarray(getattr(merged, name)).tobytes() == \
            np.asarray(getattr(whole, name)).tobytes(), name
    # Provenance: row i came from its group, at its in-group rank.
    for pos, (which, rank) in enumerate(merged.provenance()):
        assert groups[which][rank] == pos


@SETTINGS
@given(_partition_case(), st.integers(min_value=1, max_value=4))
def test_time_then_fleet_concat_commute(case, windows):
    """Windowed group blocks merge the same whether time- or
    fleet-concatenated first — the run_campaign stitching order."""
    n, groups, m, seed = case
    rng = np.random.default_rng(seed)
    wins = [_random_result(rng, n, m, t0=w * m * 0.02)
            for w in range(windows)]
    whole = RunResult.concat(wins, axis="time") if windows > 1 else wins[0]
    time_first = RunResult.concat(
        [RunResult.concat([w.take(g) for w in wins], axis="time")
         if windows > 1 else wins[0].take(g) for g in groups],
        axis="fleet", indices=groups)
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert np.asarray(getattr(time_first, name)).tobytes() == \
            np.asarray(getattr(whole, name)).tobytes(), name


@SETTINGS
@given(_partition_case())
def test_take_copies_rows_and_empty_joins_anywhere(case):
    """``take`` hands back copies of the chosen rows in the given order
    (a slice or an index list alike), and a zero-tick ``empty`` window
    joins a run on either side without changing it."""
    n, groups, m, seed = case
    whole = _random_result(np.random.default_rng(seed), n, m)
    for rows in groups + [slice(0, n), slice(n // 2, n)]:
        part = whole.take(rows)
        for name in ("time_s",) + RunResult.STACKED_FIELDS:
            got, src = getattr(part, name), getattr(whole, name)
            want = src if name == "time_s" else src[rows]
            assert got.tobytes() == want.tobytes() and \
                got.dtype == want.dtype, name
            assert not np.shares_memory(got, src), name
    empty = RunResult.empty(n)
    assert len(empty) == 0 and empty.n_monitors == n
    assert empty.direction.dtype == np.int64
    joined = RunResult.concat([empty, whole, empty], axis="time")
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert getattr(joined, name).tobytes() == \
            getattr(whole, name).tobytes(), name


@SETTINGS
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_indices_must_be_an_exact_permutation_cover(seed):
    rng = np.random.default_rng(seed)
    a = _random_result(rng, 2, 3)
    b = _random_result(rng, 1, 3)
    with pytest.raises(ConfigurationError):  # hole: row 3 never filled
        RunResult.concat([a, b], axis="fleet", indices=[[0, 1], [3]])
    with pytest.raises(ConfigurationError):  # duplicate row
        RunResult.concat([a, b], axis="fleet", indices=[[0, 1], [1]])
    with pytest.raises(ConfigurationError):  # block/indices shape clash
        RunResult.concat([a, b], axis="fleet", indices=[[0], [1, 2]])


def test_time_join_keeps_shared_provenance():
    """Windows joined on the time axis keep the row labels they share;
    an unlabelled window (a zero-tick ``empty``) adds none, and windows
    whose labels disagree are refused."""
    rng = np.random.default_rng(7)
    first, second = _random_result(rng, 2, 3), _random_result(rng, 2, 3, 1.0)
    labels = [("g", 0), ("g", 1)]
    first._provenance = list(labels)
    second._provenance = list(labels)
    joined = RunResult.concat([RunResult.empty(2), first, second],
                              axis="time")
    assert joined.provenance() == labels
    assert RunResult.concat([first, _random_result(rng, 2, 3, 1.0)],
                            axis="time").provenance() == labels
    second._provenance = [("g", 1), ("g", 0)]
    with pytest.raises(ConfigurationError):
        RunResult.concat([first, second], axis="time")


def test_unknown_axis_refused():
    rng = np.random.default_rng(0)
    a = _random_result(rng, 1, 3)
    with pytest.raises(ConfigurationError):
        RunResult.concat([a], axis="diagonal")
