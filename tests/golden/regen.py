"""(Re)generate the golden-trace archives at fixed seeds.

Run from the repository root::

    PYTHONPATH=src python -m tests.golden.regen

Five archives pin the execution paths of the same physics:

- ``scalar_cta.npz`` — one rig through the per-sample scalar reference
  loop (``TestRig.run``, i.e. the CTA loop ticked in Python);
- ``batch_engine.npz`` — a three-rig fleet through the vectorized
  :class:`~repro.runtime.batch.BatchEngine`;
- ``sharded_engine.npz`` — the same fleet through the process-parallel
  :class:`~repro.runtime.parallel.ShardedEngine` (two workers);
- ``fast_engine.npz`` — the same fleet through the batch engine with
  ``numerics="fast"`` (vectorized transcendentals);
- ``mixed_fleet.npz`` — an interleaved two-config-group fleet through
  the group-by-config :class:`~repro.runtime.mixed.MixedEngine` (the
  ragged merge back into caller order).

Four more pin the checkpoint/resume path (``*_resume``): the same
cases advanced to step 737 (deliberately *not* a multiple of the
recording decimation, so the mid-window phase rides the checkpoint),
snapshotted through :func:`~repro.runtime.checkpoint.save_checkpoint` /
:func:`~repro.runtime.checkpoint.load_checkpoint` on disk, completed
from the restored engine and stitched.  Each must be byte-identical to
its uninterrupted sibling archive — asserted pairwise by
``tests/test_golden_traces.py`` via :data:`RESUME_PAIRS`.

The exact-mode cases are pure functions of their hard-coded seeds, so
regenerating on the same code produces byte-identical archives; the
test suite compares them byte for byte.  The fast case is additionally
subject to numpy's SIMD transcendentals, whose last-ulp rounding may
differ across builds, so ``tests/test_golden_traces.py`` holds it to a
1e-9 relative tolerance instead of bytes.  A diff against the
checked-in files therefore means the simulation's numerics changed —
commit regenerated archives only for *intentional* physics changes, and
say so in the commit message.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.runtime import BatchEngine, MixedEngine, RunResult, \
    ShardedEngine, load_checkpoint, save_checkpoint, spawn_monitor_seeds
from repro.station.profiles import staircase
from repro.station.rig import RigRecord
from repro.station.scenarios import build_calibrated_monitor

__all__ = ["GOLDEN_DIR", "CASES", "TOLERANT_CASES", "RESUME_PAIRS",
           "scalar_cta_case", "batch_engine_case", "sharded_engine_case",
           "fast_engine_case", "mixed_fleet_case", "scalar_resume_case",
           "batch_resume_case", "sharded_resume_case", "mixed_resume_case",
           "main"]

#: Directory holding the checked-in archives (this package).
GOLDEN_DIR = Path(__file__).resolve().parent

_SCALAR_SEED = 20080310  # DATE 2008 week, scalar case
_FLEET_SEED = 777
_FLEET_N = 3
_PROFILE = staircase([0.0, 60.0, 140.0], dwell_s=0.5)
_RECORD_EVERY_N = 20
_TOTAL_STEPS = 1500  # _PROFILE at the 1 kHz loop rate
# The resume cases cut here: NOT a multiple of _RECORD_EVERY_N, so the
# mid-window decimation phase has to survive the checkpoint round trip.
_RESUME_AT = 737


def _fleet_rigs():
    return [build_calibrated_monitor(seed=s, fast=True).rig
            for s in spawn_monitor_seeds(_FLEET_SEED, _FLEET_N)]


def scalar_cta_case() -> dict[str, np.ndarray]:
    """One rig through the scalar CTA reference loop; RigRecord traces."""
    rig = build_calibrated_monitor(seed=_SCALAR_SEED, fast=True).rig
    record = rig.run(_PROFILE, record_every_n=_RECORD_EVERY_N)
    return {name: np.asarray(getattr(record, name))
            for name in RigRecord.FIELDS}


def batch_engine_case() -> dict[str, np.ndarray]:
    """Three rigs through the vectorized batch engine; RunResult traces."""
    result = BatchEngine(_fleet_rigs()).run(
        _PROFILE, record_every_n=_RECORD_EVERY_N)
    return {name: np.asarray(getattr(result, name))
            for name in ("time_s",) + RunResult.STACKED_FIELDS}


def sharded_engine_case() -> dict[str, np.ndarray]:
    """The same fleet through the sharded engine (two workers)."""
    result = ShardedEngine(_fleet_rigs(), workers=2).run(
        _PROFILE, record_every_n=_RECORD_EVERY_N)
    return {name: np.asarray(getattr(result, name))
            for name in ("time_s",) + RunResult.STACKED_FIELDS}


def fast_engine_case() -> dict[str, np.ndarray]:
    """The same fleet through the batch engine in fast numerics mode."""
    result = BatchEngine(_fleet_rigs(), numerics="fast").run(
        _PROFILE, record_every_n=_RECORD_EVERY_N)
    return {name: np.asarray(getattr(result, name))
            for name in ("time_s",) + RunResult.STACKED_FIELDS}


def mixed_fleet_case() -> dict[str, np.ndarray]:
    """Four rigs, two interleaved config groups, through the MixedEngine.

    Odd positions run at 7 K overtemperature, so the engine has to
    sub-batch per config group and interleave the ragged blocks back
    into caller order — this archive pins that merge (and the group
    engines under it) byte for byte.
    """
    seeds = spawn_monitor_seeds(_FLEET_SEED, 4)
    rigs = [build_calibrated_monitor(
                seed=s, fast=True,
                overtemperature_k=7.0 if i % 2 else 5.0).rig
            for i, s in enumerate(seeds)]
    result = MixedEngine(rigs).run(_PROFILE,
                                   record_every_n=_RECORD_EVERY_N)
    return {name: np.asarray(getattr(result, name))
            for name in ("time_s",) + RunResult.STACKED_FIELDS}


def _checkpoint_roundtrip(engine):
    """Snapshot ``engine`` to a real file and hand back the restored one."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "resume.ckpt"
        save_checkpoint(engine, path)
        return load_checkpoint(path).engine


def _fleet_resume(engine) -> dict[str, np.ndarray]:
    """Advance to the cut, checkpoint-roundtrip, finish, stitch."""
    first = engine.advance(_PROFILE, _RESUME_AT,
                           record_every_n=_RECORD_EVERY_N)
    restored = _checkpoint_roundtrip(engine)
    rest = restored.advance(_PROFILE, _TOTAL_STEPS - _RESUME_AT,
                            record_every_n=_RECORD_EVERY_N)
    result = RunResult.concat([first, rest], axis="time")
    return {name: np.asarray(getattr(result, name))
            for name in ("time_s",) + RunResult.STACKED_FIELDS}


def scalar_resume_case() -> dict[str, np.ndarray]:
    """The scalar case cut at step 737, checkpointed, resumed, stitched."""
    rig = build_calibrated_monitor(seed=_SCALAR_SEED, fast=True).rig
    first = rig.advance(_PROFILE, _RESUME_AT,
                        record_every_n=_RECORD_EVERY_N)
    restored = _checkpoint_roundtrip(rig)
    rest = restored.advance(_PROFILE, _TOTAL_STEPS - _RESUME_AT,
                            record_every_n=_RECORD_EVERY_N)
    record = RigRecord.concat([first, rest])
    return {name: np.asarray(getattr(record, name))
            for name in RigRecord.FIELDS}


def batch_resume_case() -> dict[str, np.ndarray]:
    """The batch case cut at step 737, checkpointed, resumed, stitched."""
    return _fleet_resume(BatchEngine(_fleet_rigs()))


def sharded_resume_case() -> dict[str, np.ndarray]:
    """The sharded case cut at step 737, checkpointed, resumed, stitched."""
    return _fleet_resume(ShardedEngine(_fleet_rigs(), workers=2))


def mixed_resume_case() -> dict[str, np.ndarray]:
    """The mixed case cut at step 737, checkpointed, resumed, stitched."""
    seeds = spawn_monitor_seeds(_FLEET_SEED, 4)
    rigs = [build_calibrated_monitor(
                seed=s, fast=True,
                overtemperature_k=7.0 if i % 2 else 5.0).rig
            for i, s in enumerate(seeds)]
    return _fleet_resume(MixedEngine(rigs))


#: Archive stem -> case function; the single source of truth shared by
#: this regenerator and ``tests/test_golden_traces.py``.
CASES = {
    "scalar_cta": scalar_cta_case,
    "batch_engine": batch_engine_case,
    "sharded_engine": sharded_engine_case,
    "fast_engine": fast_engine_case,
    "mixed_fleet": mixed_fleet_case,
    "scalar_resume": scalar_resume_case,
    "batch_resume": batch_resume_case,
    "sharded_resume": sharded_resume_case,
    "mixed_resume": mixed_resume_case,
}

#: Resume stem -> uninterrupted sibling stem; each pair's archives must
#: be byte-identical (the checkpoint/resume parity contract).
RESUME_PAIRS = {
    "scalar_resume": "scalar_cta",
    "batch_resume": "batch_engine",
    "sharded_resume": "sharded_engine",
    "mixed_resume": "mixed_fleet",
}

#: Stems whose archives are compared with a tolerance rather than byte
#: for byte (numpy's vectorized transcendentals are build-dependent in
#: the last ulp).
TOLERANT_CASES = frozenset({"fast_engine"})


def main() -> int:
    """Regenerate every archive in :data:`GOLDEN_DIR`; returns 0."""
    for stem, case in CASES.items():
        path = GOLDEN_DIR / f"{stem}.npz"
        np.savez_compressed(path, **case())
        with np.load(path) as data:
            shapes = {k: data[k].shape for k in data.files}
        print(f"wrote {path.name}: {shapes}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
