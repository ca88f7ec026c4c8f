"""Engine-then-scalar state parity: ``BatchEngine.write_back``.

A fleet advanced ``k`` steps on the engine and written back into its
rigs continues on the scalar loop (``TestRig.advance``) exactly as rigs
that never left the scalar loop: the next ``m`` steps' traces are
``array_equal`` and, afterwards, every declared stage reachable from
each rig holds the same state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import BatchEngine, FleetSpec
from repro.state import state_of
from repro.station.profiles import staircase
from repro.station.rig import RigRecord
from repro.station.scenarios import clear_calibration_cache
from tests.test_stage_state import _plain, _plain_fields, _stages

PROFILE = staircase([0.0, 50.0, 120.0], dwell_s=0.4)
M = 400


def _rigs(pulsed: bool) -> list:
    return FleetSpec.homogeneous(
        4, seed=404, use_pulsed_drive=pulsed, fast_calibration=True,
        calibration_speeds_cmps=(0.0, 50.0, 120.0, 250.0)).materialize()


@pytest.mark.parametrize("pulsed, k", [
    (False, 300),
    # Pulsed drive (1 s period, 30 % duty, 50 ms blanking): the cut at
    # step 120 falls mid-pulse; at step 350 it falls in the off-phase.
    (True, 120),
    (True, 350),
])
def test_write_back_then_scalar_equals_scalar_only(pulsed, k):
    clear_calibration_cache()
    try:
        scalar, rigs = _rigs(pulsed), _rigs(pulsed)
    finally:
        clear_calibration_cache()
    engine = BatchEngine(rigs)
    engine.advance(PROFILE, k)
    engine.write_back()
    if pulsed:
        assert (0.05 < state_of(rigs[0].monitor.controller.drive)["t"] % 1.0
                < 0.3) == (k == 120)
    for oracle, rig in zip(scalar, rigs):
        oracle.advance(PROFILE, k)
        assert rig.offset == oracle.offset == k
        want, got = oracle.advance(PROFILE, M), rig.advance(PROFILE, M)
        for name in RigRecord.FIELDS:
            assert np.array_equal(getattr(got, name),
                                  getattr(want, name)), name
        sources, targets = _stages(oracle), _stages(rig)
        assert [type(s) for s in sources] == [type(t) for t in targets]
        for source, target in zip(sources, targets):
            assert _plain(state_of(target)) == _plain(state_of(source))
            assert _plain_fields(target) == _plain_fields(source)


def test_write_back_is_repeatable_between_windows():
    """Two write-backs with engine steps between them land where one
    would: each writes only the steps since the last."""
    clear_calibration_cache()
    try:
        scalar, rigs = _rigs(False), _rigs(False)
    finally:
        clear_calibration_cache()
    engine = BatchEngine(rigs)
    engine.advance(PROFILE, 100)
    engine.write_back()
    engine.advance(PROFILE, 150)
    engine.write_back()
    for oracle, rig in zip(scalar, rigs):
        oracle.advance(PROFILE, 250)
        for source, target in zip(_stages(oracle), _stages(rig)):
            assert _plain(state_of(target)) == _plain(state_of(source))
