"""Property tests for the checkpoint/store durability contracts.

Hypothesis sweeps the spaces the example tests only sample:

- a run sliced at *arbitrary* cut points, each slice boundary crossed
  via a real on-disk ``save_checkpoint``/``load_checkpoint`` round
  trip, is byte-identical to the uninterrupted run (batch and mixed
  engines, and the scalar rig path);
- restoring one checkpoint *twice* yields two independent engines that
  finish identically (resume is idempotent — loading mutates nothing);
- the artifact store returns exactly what was put, and its canonical
  key function is invariant under dict ordering.

The fleets are tiny and the profile short so each example costs
milliseconds; the calibration LRU makes the repeated rig builds cheap.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import (BatchEngine, FleetSpec, MixedEngine, RunResult,
                           load_checkpoint, save_checkpoint)
from repro.station.profiles import staircase
from repro.station.rig import RigRecord
from repro.station.scenarios import build_calibrated_monitor
from repro.store import ArtifactStore, canonical_key

pytestmark = pytest.mark.durability

_PROFILE = staircase([0.0, 80.0], dwell_s=0.15)  # 300 steps at 1 kHz
_TOTAL = 300
_EVERY = 7  # deliberately not a divisor of the cut points drawn below

_SETTINGS = dict(max_examples=12, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _rigs(n=2, base_seed=2468):
    seeds = FleetSpec.homogeneous(n, seed=base_seed).monitor_seeds()
    return [build_calibrated_monitor(seed=s, fast=True).rig for s in seeds]


def _bytes_of(result) -> dict[str, bytes]:
    return {name: np.asarray(getattr(result, name)).tobytes()
            for name in ("time_s",) + RunResult.STACKED_FIELDS}


def _roundtrip(engine):
    """One real on-disk checkpoint round trip; returns the restored engine."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prop.ckpt"
        save_checkpoint(engine, path)
        return load_checkpoint(path).engine


_REFERENCES: dict[str, dict[str, bytes]] = {}


def _reference(kind: str) -> dict[str, bytes]:
    """The uninterrupted run's bytes, computed once per engine kind."""
    if kind not in _REFERENCES:
        engine = {"batch": lambda: BatchEngine(_rigs()),
                  "mixed": lambda: MixedEngine(_rigs())}[kind]()
        _REFERENCES[kind] = _bytes_of(
            engine.run(_PROFILE, record_every_n=_EVERY))
    return _REFERENCES[kind]


@settings(**_SETTINGS)
@given(cuts=st.lists(st.integers(1, _TOTAL - 1), unique=True,
                     min_size=1, max_size=4),
       kind=st.sampled_from(["batch", "mixed"]))
def test_arbitrary_cut_resume_is_uninterrupted(cuts, kind):
    """Any sequence of checkpoint cuts reproduces the uninterrupted run."""
    bounds = [0, *sorted(cuts), _TOTAL]
    engine = (BatchEngine(_rigs()) if kind == "batch"
              else MixedEngine(_rigs()))
    windows = []
    for lo, hi in zip(bounds, bounds[1:]):
        windows.append(engine.advance(_PROFILE, hi - lo,
                                      record_every_n=_EVERY))
        if hi < _TOTAL:
            engine = _roundtrip(engine)
    assert _bytes_of(RunResult.concat(windows, axis="time")) == \
        _reference(kind)


@settings(**_SETTINGS)
@given(cut=st.integers(1, _TOTAL - 1))
def test_scalar_cut_resume_is_uninterrupted(cut):
    """The scalar rig path honours the same cut-anywhere contract."""
    ref = build_calibrated_monitor(seed=1357, fast=True).rig.run(
        _PROFILE, record_every_n=_EVERY)
    rig = build_calibrated_monitor(seed=1357, fast=True).rig
    first = rig.advance(_PROFILE, cut, record_every_n=_EVERY)
    restored = _roundtrip(rig)
    rest = restored.advance(_PROFILE, _TOTAL - cut, record_every_n=_EVERY)
    stitched = RigRecord.concat([first, rest])
    for name in RigRecord.FIELDS:
        assert (np.asarray(getattr(stitched, name)).tobytes()
                == np.asarray(getattr(ref, name)).tobytes()), name


@settings(**_SETTINGS)
@given(cut=st.integers(1, _TOTAL - 1))
def test_double_resume_is_idempotent(cut):
    """One checkpoint restored twice finishes identically both times.

    Loading must not mutate the artifact or share state between the
    restored engines — each restore is a full independent copy.
    """
    engine = MixedEngine(_rigs())
    first = engine.advance(_PROFILE, cut, record_every_n=_EVERY)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "twice.ckpt"
        save_checkpoint(engine, path)
        blob_before = path.read_bytes()
        a = load_checkpoint(path).engine
        b = load_checkpoint(path).engine
        assert path.read_bytes() == blob_before
    rest_a = a.advance(_PROFILE, _TOTAL - cut, record_every_n=_EVERY)
    rest_b = b.advance(_PROFILE, _TOTAL - cut, record_every_n=_EVERY)
    bytes_a = _bytes_of(RunResult.concat([first, rest_a], axis="time"))
    bytes_b = _bytes_of(RunResult.concat([first, rest_b], axis="time"))
    assert bytes_a == bytes_b == _reference("mixed")


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**31, 2**31)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=12)


@settings(max_examples=40, deadline=None)
@given(payload=_json_values, artifact=_json_values)
def test_store_round_trip_identity(payload, artifact):
    """get(put(x)) == x for any key payload and pickled artifact."""
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp)
        key = canonical_key(payload)
        assert key == canonical_key(payload)  # deterministic
        store.put("prop", key, artifact)
        assert store.get("prop", key) == artifact


@settings(max_examples=40, deadline=None)
@given(mapping=st.dictionaries(st.text(max_size=8), st.integers(),
                               min_size=2, max_size=6))
def test_canonical_key_ignores_insertion_order(mapping):
    reversed_order = dict(reversed(list(mapping.items())))
    assert canonical_key(mapping) == canonical_key(reversed_order)
