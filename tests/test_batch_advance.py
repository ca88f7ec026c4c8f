"""Incremental engine contract: advance slicing, ragged drop, stitching.

The streaming service stands on two :class:`BatchEngine` properties
proved here at the engine level:

- advancing a run in arbitrary step slices (including windows shorter
  than the decimation stride and boundaries that split pre-draw chunks)
  is *bit-identical* to one uninterrupted run;
- dropping rigs between advances leaves every surviving rig's traces
  bit-identical to a fleet that never contained the dropped ones.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import FleetSpec, RunResult, Session
from repro.runtime.batch import BatchEngine
from repro.station.profiles import staircase

PROFILE = staircase([20.0, 60.0, 40.0], dwell_s=1.0)
STEPS = int(round(PROFILE.duration_s / 1e-3))


def fresh_rigs(seed=7, n=3):
    with Session(fleet=FleetSpec.homogeneous(
            n, seed=seed, fast_calibration=True)) as s:
        s.calibrate()
        return [h.rig for h in s.monitors]


@pytest.fixture(scope="module")
def reference():
    """One uninterrupted 5-monitor run (rows 0-2 match a 3-fleet)."""
    return BatchEngine(fresh_rigs(n=5), chunk_size=1024).run(
        PROFILE, record_every_n=20)


def assert_traces_equal(a, b, rows=None):
    assert np.array_equal(a.time_s, b.time_s)
    for name in RunResult.STACKED_FIELDS:
        left = getattr(a, name)
        right = getattr(b, name)
        if rows is not None:
            right = right[rows]
        assert np.array_equal(left, right), name


def test_advance_slices_bit_identical(reference):
    """Arbitrary advance windows stitch into the uninterrupted run."""
    engine = BatchEngine(fresh_rigs(n=5), chunk_size=1024)
    cuts = [777, 783, 1801, 2500, STEPS]  # mid-chunk + zero-record window
    parts, prev = [], 0
    for cut in cuts:
        parts.append(engine.advance(PROFILE, cut - prev, record_every_n=20))
        prev = cut
    assert engine.offset == STEPS
    assert len(parts[1]) == 1  # 6-step window still lands one tick
    stitched = RunResult.concat(parts, axis="time")
    assert_traces_equal(stitched, reference)


def test_advance_zero_record_window_is_well_shaped():
    """A window shorter than the stride records nothing but advances."""
    engine = BatchEngine(fresh_rigs(n=2), chunk_size=256)
    window = engine.advance(PROFILE, 5, record_every_n=20)
    # step 0 records (0 % 20 == 0); the next 5 steps do not
    assert len(window) == 1
    empty = engine.advance(PROFILE, 10, record_every_n=20)
    assert len(empty) == 0
    assert empty.n_monitors == 2
    assert empty.direction.dtype == np.int64
    assert engine.offset == 15
    summary = empty.summary()
    assert np.isnan(summary["run.measured_mps"]["mean"])


def test_drop_preserves_survivor_bits(reference):
    """Dropping rigs mid-run leaves survivors bit-identical."""
    engine = BatchEngine(fresh_rigs(n=5), chunk_size=1024)
    head = engine.advance(PROFILE, 1500, record_every_n=20)
    engine.drop([1, 3])
    tail = engine.advance(PROFILE, STEPS - 1500, record_every_n=20)
    m = len(head)
    assert_traces_equal(head, RunResult(
        time_s=reference.time_s[:m],
        **{f: getattr(reference, f)[:, :m]
           for f in RunResult.STACKED_FIELDS}))
    keep = [0, 2, 4]
    assert np.array_equal(tail.time_s, reference.time_s[m:])
    for name in RunResult.STACKED_FIELDS:
        assert np.array_equal(getattr(tail, name),
                              getattr(reference, name)[keep][:, m:]), name


def test_shared_fleet_rows_match_smaller_fleet(reference):
    """A fleet's leading rows are bit-identical to the smaller fleet.

    (The seed-spawn prefix property the service's cohort multiplexing
    relies on: extra rigs in the engine never perturb other rows.)
    """
    small = BatchEngine(fresh_rigs(n=3), chunk_size=1024).run(
        PROFILE, record_every_n=20)
    assert_traces_equal(small, reference, rows=slice(0, 3))


def test_drop_validation_and_exhaustion():
    engine = BatchEngine(fresh_rigs(n=2), chunk_size=256)
    with pytest.raises(ConfigurationError):
        engine.drop([2])
    with pytest.raises(ConfigurationError):
        engine.drop([0, 0])
    engine.drop([])  # no-op
    engine.drop([0, 1])
    with pytest.raises(ConfigurationError):
        engine.advance(PROFILE, 10)


def test_advance_argument_validation():
    engine = BatchEngine(fresh_rigs(n=1), chunk_size=256)
    with pytest.raises(ConfigurationError):
        engine.advance(PROFILE, 0)
    with pytest.raises(ConfigurationError):
        engine.advance(PROFILE, 10, record_every_n=0)


def test_concat_time_validation():
    engine = BatchEngine(fresh_rigs(n=2), chunk_size=256)
    a = engine.advance(PROFILE, 100, record_every_n=20)
    b = engine.advance(PROFILE, 100, record_every_n=20)
    with pytest.raises(ConfigurationError):
        RunResult.concat([], axis="time")
    with pytest.raises(ConfigurationError):
        RunResult.concat([b, a], axis="time")  # out of order
    other = BatchEngine(fresh_rigs(n=1), chunk_size=256).advance(
        PROFILE, 100, record_every_n=20)
    with pytest.raises(ConfigurationError):
        RunResult.concat([a, other], axis="time")  # fleet-size mismatch
    both = RunResult.concat([a, b], axis="time")
    assert len(both) == len(a) + len(b)
