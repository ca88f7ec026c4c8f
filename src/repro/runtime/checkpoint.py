"""Bit-exact engine checkpoints: durable runs that survive process death.

A checkpoint is the *live engine object* — rigs, every RNG stream
(``numpy.random.Generator`` state pickles exactly), thermal/filter/PI
state, the decimation phase and the absolute step ``offset`` — wrapped
in a versioned header and written atomically.  Restoring it and calling
``advance`` continues the run **bit-identically** to one that was never
interrupted: the PR 6 ``advance/offset`` contract guarantees that a run
sliced into windows at any offsets equals the uninterrupted run, and
pickle round-trips the inter-window state exactly (the golden
``*_resume`` archives and ``tests/test_checkpoint_properties.py`` pin
this for every engine kind).

Engine kinds and what gets snapshotted:

- ``"scalar"`` — a :class:`~repro.station.rig.TestRig` (its monitor,
  line and reference carry all state; :attr:`TestRig.offset` carries
  the cut point).
- ``"batch"`` — a :class:`~repro.runtime.batch.BatchEngine` (vectorized
  fleet state plus the rigs its RNG streams alias).
- ``"sharded"`` — a :class:`~repro.runtime.parallel.ShardedEngine`
  (a mixed engine with worker knobs; with more than one worker, each
  config group's live engine is a pickled job blob held in the parent
  between windows, so the parent object alone is the complete run).
- ``"mixed"`` — a :class:`~repro.runtime.mixed.MixedEngine` (per-group
  engines or job blobs, plus the interleave map).

:class:`WindowedRun` is the one windowed-run driver built on top:
advance in windows, checkpoint after each non-final one, resume from
the artifact after a crash, delete it on success.  Every durable run
kind goes through it — :func:`run_durable` (``Session(checkpoint_dir=
...)`` and the CLI), :func:`repro.station.campaign.run_campaign` and
the service cohorts recovered by :func:`repro.service.recover_cohorts`
— each adding only its own bookkeeping as the checkpoint's ``state``.

Failures raise :class:`~repro.errors.CheckpointError` with a
machine-readable ``reason``: ``"missing"``, ``"corrupt"``,
``"version"``, ``"kind"`` or ``"mismatch"`` (see the class docs).
Writes land on the opt-in ``checkpoint.writes`` counter and
``checkpoint.write_s`` histogram; loads on ``checkpoint.loads``.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CheckpointError, ConfigurationError
from repro.observability import get_registry
from repro.runtime.batch import BatchEngine
from repro.runtime.faults import checkpoint_site
from repro.runtime.mixed import MixedEngine
from repro.runtime.parallel import ShardedEngine
from repro.runtime.result import RunResult
from repro.station.profiles import Profile
from repro.station.rig import TestRig
from repro.store import canonical_key

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint",
           "WindowedRun", "run_durable", "run_fingerprint", "engine_kind",
           "CHECKPOINT_FORMAT_VERSION"]

#: On-disk checkpoint format version; bumped on incompatible changes
#: (2: durable runs, campaigns and service cohorts share the
#: :class:`WindowedRun` meta layout; 3: the pickled
#: :class:`ShardedEngine` layout lost its shared-memory pool state;
#: 4: engines hold one job blob per config group, not row shards).
CHECKPOINT_FORMAT_VERSION = 4

#: Header magic identifying a checkpoint artifact.
_MAGIC = "repro-checkpoint"

#: Engine kind dispatch, most specific type first (a ShardedEngine is
#: a MixedEngine).
_KINDS: tuple[tuple[str, type], ...] = (
    ("sharded", ShardedEngine),
    ("mixed", MixedEngine),
    ("batch", BatchEngine),
    ("scalar", TestRig),
)


def engine_kind(engine) -> str:
    """The checkpoint kind slug for an engine (or rig) instance.

    Raises
    ------
    CheckpointError
        If the object is not one of the checkpointable kinds
        (``reason="kind"``).
    """
    for kind, cls in _KINDS:
        if isinstance(engine, cls):
            return kind
    raise CheckpointError(
        f"cannot checkpoint a {type(engine).__name__}; expected one of "
        f"{[cls.__name__ for _, cls in _KINDS]}", reason="kind")


@dataclass
class Checkpoint:
    """One restored checkpoint artifact.

    Attributes
    ----------
    version:
        Format version the artifact was written with.
    kind:
        Engine kind slug (``"scalar"``/``"batch"``/``"sharded"``/
        ``"mixed"``).
    offset:
        Absolute step of the next tick at snapshot time (the cut
        point).
    meta:
        Caller-supplied bookkeeping saved alongside the engine
        (fingerprints, accumulated windows, ...); ``{}`` if none.
    engine:
        The live engine object, ready for ``advance``.
    """

    version: int
    kind: str
    offset: int
    meta: dict
    engine: object


def _atomic_write(path: Path, blob: bytes) -> None:
    """Publish ``blob`` at ``path`` via write-then-rename (atomic)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".tmp-{os.getpid()}-{id(blob):x}-{path.name}"
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(engine, path, *, meta: dict | None = None) -> Path:
    """Snapshot a live engine (or scalar rig) to a checkpoint artifact.

    The engine keeps running afterwards — saving only pickles it.  The
    write is atomic (write-then-rename), so a crash mid-save leaves the
    previous checkpoint intact, and a concurrent reader can never see a
    torn artifact.

    Parameters
    ----------
    engine:
        A :class:`TestRig`, :class:`BatchEngine`, :class:`ShardedEngine`
        or :class:`MixedEngine` between ``advance`` windows.
    path:
        Destination file.
    meta:
        Optional JSON-able/pickle-able bookkeeping to store alongside
        (returned verbatim by :func:`load_checkpoint`).

    Raises
    ------
    CheckpointError
        ``reason="kind"`` for a non-checkpointable object;
        ``reason="checkpoint"`` if the engine fails to pickle.
    """
    t0 = time.perf_counter()
    path = Path(path)
    kind = engine_kind(engine)
    record = {
        "magic": _MAGIC,
        "version": CHECKPOINT_FORMAT_VERSION,
        "kind": kind,
        "offset": int(engine.offset),
        "meta": dict(meta or {}),
        "engine": engine,
    }
    try:
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"{kind} engine failed to pickle: {exc}") from exc
    _atomic_write(path, blob)
    registry = get_registry()
    if registry.enabled:
        registry.counter("checkpoint.writes").inc()
        registry.histogram(
            "checkpoint.write_s",
            "checkpoint serialization + publish wall time").observe(
            time.perf_counter() - t0)
    return path


def load_checkpoint(path, *, expect_kind: str | None = None) -> Checkpoint:
    """Restore a checkpoint written by :func:`save_checkpoint`.

    Parameters
    ----------
    path:
        Checkpoint file.
    expect_kind:
        When given, the artifact must hold this engine kind.

    Raises
    ------
    CheckpointError
        ``reason="missing"`` if there is no artifact at ``path``;
        ``reason="corrupt"`` if it is not a valid checkpoint;
        ``reason="version"`` for an incompatible format version;
        ``reason="kind"`` on an ``expect_kind`` mismatch.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        raise CheckpointError(
            f"no checkpoint at {path}", reason="missing") from None
    try:
        record = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path} failed to deserialize: {exc}",
            reason="corrupt") from exc
    if not isinstance(record, dict) or record.get("magic") != _MAGIC:
        raise CheckpointError(
            f"{path} is not a repro checkpoint", reason="corrupt")
    if record["version"] != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {record['version']}; "
            f"this library reads version {CHECKPOINT_FORMAT_VERSION}",
            reason="version")
    if expect_kind is not None and record["kind"] != expect_kind:
        raise CheckpointError(
            f"checkpoint {path} holds a {record['kind']} engine, "
            f"expected {expect_kind}", reason="kind")
    registry = get_registry()
    if registry.enabled:
        registry.counter("checkpoint.loads").inc()
    return Checkpoint(version=record["version"], kind=record["kind"],
                      offset=record["offset"], meta=record["meta"],
                      engine=record["engine"])


def run_fingerprint(profile: Profile, total_steps: int,
                    record_every_n: int, numerics: str, **extra) -> str:
    """Canonical hash of everything a resumed run must agree on.

    Covers the profile (type and segments), the horizon, the recording
    cadence and the numerics mode; callers add what else pins their
    run (``n_monitors`` for :func:`run_durable`, the fleet spec and
    chunk size for campaigns) as ``extra`` keys.
    """
    return canonical_key({
        "profile_type": type(profile).__name__,
        "segments": [(s.duration_s, s.speed_mps, s.pressure_pa,
                      s.temperature_k, s.interpolate)
                     for s in profile.segments],
        "total_steps": total_steps,
        "record_every_n": record_every_n,
        "numerics": numerics,
        **extra,
    })


class WindowedRun:
    """One engine advanced toward a fixed horizon in checkpointed windows.

    The single driver behind every durable run kind —
    :func:`run_durable`, :func:`repro.station.campaign.run_campaign`
    and the :class:`~repro.service.FleetService` cohorts.  It owns the
    mechanics they share; callers keep only their own bookkeeping
    (window reports, member slicing, health scoring), which they hand
    to :meth:`checkpoint` as an opaque ``state``:

    - :meth:`advance` clamps the window budget to the steps left and
      advances the engine, keeping the run offset :attr:`done`;
    - :meth:`checkpoint` snapshots the engine, the offset and the
      caller's state after every non-final window (a no-op for a run
      without ``checkpoint_path`` and after the final window), then
      fires the ``kill:<k>`` fault site of :mod:`repro.runtime.faults`;
    - :meth:`restore` resumes from a checkpoint whose fingerprint
      matches the caller's (``reason="mismatch"`` otherwise);
    - :meth:`finish` deletes the checkpoint once the run's work is
      safe.

    A run may chain several engines over consecutive legs — a
    campaign runs its execution groups one after the other inside one
    horizon — by assigning :attr:`engine` and :attr:`profile` before a
    leg's first window.  The engine may also be attached late (a
    service cohort builds it when the cohort seals).

    Attributes
    ----------
    engine:
        The live engine (anything with ``advance``), or None until
        attached.
    profile:
        Setpoint schedule the engine advances through.
    total_steps:
        Horizon in loop ticks; the run is :attr:`complete` at it.
    record_every_n:
        Recording decimation.
    done:
        Loop ticks completed so far (the run offset).
    """

    def __init__(self, engine, profile: Profile, total_steps: int, *,
                 record_every_n: int, checkpoint_path=None,
                 fingerprint: str | None = None, done: int = 0) -> None:
        self.engine = engine
        self.profile = profile
        self.total_steps = int(total_steps)
        self.record_every_n = int(record_every_n)
        self.checkpoint_path = (None if checkpoint_path is None
                                else Path(checkpoint_path))
        self.fingerprint = fingerprint
        self.done = int(done)

    @property
    def remaining(self) -> int:
        """Loop ticks left to the horizon."""
        return self.total_steps - self.done

    @property
    def complete(self) -> bool:
        """Whether the run reached its horizon."""
        return self.done >= self.total_steps

    def budget(self, steps: int) -> int:
        """The window :meth:`advance` takes when asked for ``steps``."""
        return min(int(steps), self.remaining)

    def advance(self, steps: int) -> RunResult:
        """Advance one window of at most ``steps`` ticks; its rows."""
        budget = self.budget(steps)
        rows = self.engine.advance(self.profile, budget,
                                   record_every_n=self.record_every_n)
        self.done += budget
        return rows

    def checkpoint(self, state: dict) -> None:
        """Snapshot the run after a non-final window (atomic write).

        ``state`` is the caller's bookkeeping at the same cut point,
        returned verbatim by :meth:`restore`.
        """
        if self.checkpoint_path is None or self.complete:
            return
        save_checkpoint(self.engine, self.checkpoint_path, meta={
            "fingerprint": self.fingerprint,
            "done": self.done,
            "total_steps": self.total_steps,
            "record_every_n": self.record_every_n,
            "profile": self.profile,
            "state": state,
        })
        checkpoint_site()

    @classmethod
    def restore(cls, checkpoint_path, fingerprint: str | None = None, *,
                expect_kind: str | None = None,
                ) -> tuple["WindowedRun", dict]:
        """Resume a run from its checkpoint: ``(run, state)``.

        A run checkpointed without a fingerprint (a service cohort,
        adopted as whatever run the dead process was executing)
        restores with the default ``fingerprint=None``.

        Raises
        ------
        CheckpointError
            As for :func:`load_checkpoint`, plus ``reason="mismatch"``
            when the artifact's fingerprint differs from
            ``fingerprint`` (it belongs to another run configuration).
        """
        ckpt = load_checkpoint(checkpoint_path, expect_kind=expect_kind)
        meta = ckpt.meta
        if meta.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"checkpoint {checkpoint_path} was taken under a different "
                f"run configuration; refusing to resume", reason="mismatch")
        run = cls(ckpt.engine, meta["profile"], meta["total_steps"],
                  record_every_n=meta["record_every_n"],
                  checkpoint_path=checkpoint_path, fingerprint=fingerprint,
                  done=meta["done"])
        return run, meta["state"]

    def finish(self) -> None:
        """Delete the checkpoint: the run's results are safe elsewhere."""
        if self.checkpoint_path is not None:
            self.checkpoint_path.unlink(missing_ok=True)

    def close(self) -> None:
        """Close the engine, if it has a lifecycle."""
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()


def run_durable(engine: MixedEngine, profile: Profile, *,
                checkpoint_path, record_every_n: int = 20,
                window_steps: int = 1000,
                resume: bool = False) -> RunResult:
    """Run an engine with per-window checkpoints; resume after a crash.

    A :class:`WindowedRun` advances ``engine`` in ``window_steps``
    slices; after each window the live engine and the accumulated
    window results are checkpointed at ``checkpoint_path``.  If the
    process dies, calling again with ``resume=True`` picks up at the
    last completed window and the final :class:`RunResult` is
    bit-identical to an uninterrupted run.  On success the checkpoint
    is deleted.

    Parameters
    ----------
    engine:
        A :class:`MixedEngine` at step 0, new or rewound; its numerics
        mode and worker count are the run's.  On resume the engine
        restored from the checkpoint advances instead, with the worker
        count it was checkpointed with, and ``engine`` only supplies
        the fleet size and numerics the fingerprint checks.
    profile:
        Setpoint schedule; its length fixes the total step count.
    checkpoint_path:
        Artifact location for the per-window snapshots.
    record_every_n:
        As for the engines.
    window_steps:
        Checkpoint cadence in loop ticks.
    resume:
        Continue from an existing checkpoint instead of starting fresh.
        The checkpoint's run fingerprint (profile, fleet size, cadence,
        numerics, not workers) must match this call's.

    Raises
    ------
    CheckpointError
        ``reason="missing"`` when resuming without a checkpoint;
        ``reason="mismatch"`` when the checkpoint belongs to a
        different run configuration.
    ConfigurationError
        On invalid knobs or an empty profile; ``reason="engine"`` when
        ``engine`` is not a :class:`MixedEngine` at step 0 (a rig list,
        say).
    """
    if window_steps < 1:
        raise ConfigurationError("window_steps must be >= 1")
    if record_every_n < 1:
        raise ConfigurationError("record_every_n must be >= 1")
    if not isinstance(engine, MixedEngine) or engine.offset != 0:
        raise ConfigurationError(
            "run_durable takes a MixedEngine at step 0: build "
            "MixedEngine(rigs), or rewind() a used one", reason="engine")
    total = int(round(profile.duration_s / engine.dt_s))
    if total < 1:
        raise ConfigurationError("profile shorter than one loop tick")
    fingerprint = run_fingerprint(profile, total, record_every_n,
                                  engine.numerics,
                                  n_monitors=engine.n_monitors)
    if resume:
        run, state = WindowedRun.restore(checkpoint_path, fingerprint)
        windows: list[RunResult] = list(state["windows"])
    else:
        run = WindowedRun(engine, profile, total,
                          record_every_n=record_every_n,
                          checkpoint_path=checkpoint_path,
                          fingerprint=fingerprint)
        windows = []
    try:
        while not run.complete:
            windows.append(run.advance(window_steps))
            run.checkpoint({"windows": windows})
    finally:
        run.close()
    result = RunResult.concat(windows, axis="time")
    run.finish()
    return result
