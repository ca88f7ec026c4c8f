"""Shared fixtures for the experiment benches (E1-E14).

One full-quality calibrated setup (the §4 campaign against the
Promag 50) is built once per session; every measurement bench takes
its own deep copy of it, so a bench's figures do not depend on which
benches ran before it and ``pytest benchmarks/test_eNN_<name>.py``
alone reproduces the full-run figures.  Benches that need other sensor
settings build fresh setups.

Every bench prints the paper-style table/series it regenerates, so
``pytest benchmarks/ --benchmark-only -s`` reproduces the evaluation
section of the paper in one run.
"""

from __future__ import annotations

import copy

import pytest

from repro.station.scenarios import CalibratedSetup, build_calibrated_monitor


@pytest.fixture(scope="session")
def _calibrated_paper_setup() -> CalibratedSetup:
    """Full-quality calibrated monitor, continuous drive (built once).

    Continuous drive is used for the *measurement* benches because at
    the paper's reduced overtemperature (5 K) no bubbles form either
    way (E5 demonstrates exactly that), and it keeps the 0.1 Hz output
    filter's effective settling at its nominal value.
    """
    return build_calibrated_monitor(seed=123, use_pulsed_drive=False)


@pytest.fixture
def paper_setup(_calibrated_paper_setup) -> CalibratedSetup:
    """A fresh deep copy of the session's calibrated setup, per bench."""
    return copy.deepcopy(_calibrated_paper_setup)
