"""Batch-engine parity with live bubbles.

At 40 K overtemperature and 5 cm/s the heaters pass the nucleation
superheat, so the engine's bubble branch runs: coverage growth, boiling
onset, detachment and the lazily drawn churn noise.  Three rigs through
:class:`~repro.runtime.BatchEngine` must match their own
:meth:`TestRig.run <repro.station.rig.TestRig.run>` bit for bit.
"""

import numpy as np
import pytest

from repro.runtime import BatchEngine, RunResult
from repro.station.profiles import staircase
from repro.station.scenarios import build_calibrated_monitor

_PROFILE = staircase([5.0, 5.0], dwell_s=2.0)
_BUILD = dict(use_pulsed_drive=False, fast=True,
              calibration_speeds_cmps=(0.0, 50.0, 120.0, 250.0),
              overtemperature_k=40.0)
_SEEDS = (3, 4, 5)


def _rigs():
    return [build_calibrated_monitor(seed=s, **_BUILD).rig for s in _SEEDS]


@pytest.fixture(scope="module")
def scalar():
    return RunResult.from_records([rig.run(_PROFILE) for rig in _rigs()])


def test_bubbles_are_live(scalar):
    assert float(np.max(scalar.bubble_coverage)) > 0.3


def test_exact_engine_matches_scalar_with_bubbles(scalar):
    batched = BatchEngine(_rigs()).run(_PROFILE)
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert np.array_equal(getattr(batched, name),
                              getattr(scalar, name)), name

