"""The chunk-tail flow estimator of the batch engine.

The engine runs the flow estimator (King's-law inversion, 0.1 Hz output
IIR, direction comparator) once per chunk over the PI outputs its
per-sample loop collected.  Two properties hold it to the per-sample
form:

- :func:`~repro.runtime.kernels.hysteresis_block` equals the per-step
  nested-``np.where`` comparator on any trajectory, including levels
  exactly at the thresholds, NaN, every initial state and zero
  hysteresis;
- engine traces equal the scalar ``TestRig.run`` loop bit for bit
  where the chunk tail has edge cases: chunks without a valid sample,
  ticks recorded before a chunk's first valid sample, two direction
  flips in one chunk, and advance windows cut just after a flip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import BatchEngine, RunResult
from repro.runtime.kernels import hysteresis_block
from repro.station.profiles import staircase
from repro.station.scenarios import build_calibrated_monitor

THRESHOLD = 0.004


def _stepwise(state, level, threshold, threshold_hi):
    """The per-step comparator, one nested ``np.where`` per sample."""
    out = np.empty(level.shape, dtype=np.int64)
    for k, d in enumerate(level):
        state = np.where(
            (state == 0) & (d > threshold), 1,
            np.where((state == 0) & (d < -threshold), -1,
                     np.where((state == 1) & (d < -threshold_hi), -1,
                              np.where((state == -1) & (d > threshold_hi),
                                       1, state))))
        out[k] = state
    return out, state


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1, 160),
       hysteresis=st.sampled_from([0.0, 0.002, 0.01]),
       special_share=st.sampled_from([0.0, 0.2, 0.6]))
def test_hysteresis_block_matches_stepwise(seed, steps, hysteresis,
                                           special_share):
    rng = np.random.default_rng(seed)
    threshold_hi = THRESHOLD + hysteresis
    # Six rows: each initial state twice; random walks on the scale of
    # the thresholds, sprinkled with exact threshold values and NaN.
    state = np.array([-1, 0, 1, -1, 0, 1], dtype=np.int64)
    level = np.cumsum(rng.normal(0.0, 0.004, (steps, 6)), axis=0)
    specials = np.array([THRESHOLD, -THRESHOLD, threshold_hi, -threshold_hi,
                         np.nan, 0.0])
    mask = rng.random(level.shape) < special_share
    level[mask] = rng.choice(specials, size=int(mask.sum()))
    want, want_final = _stepwise(state, level, THRESHOLD, threshold_hi)
    got, got_final = hysteresis_block(state, level, THRESHOLD, threshold_hi)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert np.array_equal(got_final, want_final)


# -- engine parity against the scalar loop ------------------------------------

SEEDS = (31, 32)
PULSED = staircase([30.0, 90.0], dwell_s=1.5)
# Forward, reverse, forward: with continuous drive both rows flip at
# ~2.0 s and back at ~3.2 s, inside one 4096-step chunk.
REVERSING = staircase([60.0, -60.0, 60.0], dwell_s=1.2)
REVERSING_STEPS = int(round(REVERSING.duration_s / 1e-3))


def _rigs(pulsed):
    return [build_calibrated_monitor(seed=s, fast=True,
                                     use_pulsed_drive=pulsed).rig
            for s in SEEDS]


@pytest.fixture(scope="module")
def oracle():
    """Scalar ``TestRig.run`` traces on fresh rigs, per profile."""
    return {
        name: RunResult.from_records(
            [rig.run(profile, record_every_n=20) for rig in _rigs(pulsed)])
        for name, profile, pulsed in (("pulsed", PULSED, True),
                                      ("reversing", REVERSING, False))}


def _assert_matches(result, scalar):
    assert np.array_equal(result.time_s, scalar.time_s)
    for name in RunResult.STACKED_FIELDS:
        got = np.asarray(getattr(result, name))
        want = np.asarray(getattr(scalar, name))
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


#: The engine traces below are held to the scalar loop bit for bit; the
#: ``[exact]`` test id names that contract.
bit_exact = pytest.mark.parametrize("contract", ["exact"])


@bit_exact
def test_small_pulsed_chunks_match_scalar(oracle, contract):
    engine = BatchEngine(_rigs(True), chunk_size=37)
    chunks = []
    estimate = engine._estimate

    def spy(u_valid, rec_valid):
        chunks.append((len(u_valid), list(rec_valid)))
        return estimate(u_valid, rec_valid)

    engine._estimate = spy
    _assert_matches(engine.run(PULSED, record_every_n=20),
                    oracle["pulsed"])
    # The edge cases this chunking exists for did occur.
    assert any(valid == 0 for valid, _ in chunks)
    assert any(valid and rec and rec[0] == 0 for valid, rec in chunks)


@bit_exact
def test_two_flips_in_one_chunk_match_scalar(oracle, contract):
    result = BatchEngine(_rigs(False), chunk_size=4096).run(
        REVERSING, record_every_n=20)
    _assert_matches(result, oracle["reversing"])
    assert len(result.time_s) * 20 <= 4096
    for row in result.direction:
        assert list(row[np.flatnonzero(np.diff(row)) + 1]) == [1, -1, 1]


@bit_exact
def test_advance_cut_after_a_flip_matches_scalar(oracle, contract):
    every_step = BatchEngine(_rigs(False)).run(REVERSING, record_every_n=1)
    flips = sorted({int(k) + 1 for row in every_step.direction
                    for k in np.flatnonzero(np.diff(row))})
    # Cut one step after each flip: the flip is inside the window and
    # its next recorded tick is not yet.
    cuts = [f + 1 for f in flips if (f + 1) % 20] + [REVERSING_STEPS]
    assert len(cuts) >= 5
    engine = BatchEngine(_rigs(False))
    parts, prev = [], 0
    for cut in cuts:
        parts.append(engine.advance(REVERSING, cut - prev, record_every_n=20))
        prev = cut
    _assert_matches(RunResult.concat(parts, axis="time"),
                    oracle["reversing"])
