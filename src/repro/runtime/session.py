"""Session lifecycle for fleet-scale monitor simulation.

A :class:`Session` owns N calibrated monitoring points and runs line
profiles over all of them at once, through either the vectorized batch
engine (default) or the scalar reference path.  The lifecycle is
explicit::

    with Session(n_monitors=16, seed=2024) as session:   # -> open()
        session.calibrate()
        result = session.run(staircase([0, 50, 100], dwell_s=4.0))
    # leaving the block -> close()

``run`` may be called any number of times: each call re-materializes
the rigs from the per-monitor seeds (cheap after the first build thanks
to the calibration cache in :mod:`repro.station.scenarios`), so every
run starts from the same freshly-built state and a batch run is
bit-identical to the scalar run with the same seeds.  Calling a stage
out of order raises :class:`~repro.errors.SessionError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ConfigurationError, SessionError
from repro.observability import (get_event_log, get_profiler,
                                 get_registry, get_tracer)
from repro.conditioning.calibration import FlowCalibration
from repro.conditioning.monitor import WaterFlowMonitor
from repro.runtime.batch import BatchEngine
from repro.runtime.kernels import resolve_numerics
from repro.runtime.result import RunResult
from repro.runtime.spec import FleetSpec
from repro.station.profiles import Profile
from repro.station.rig import TestRig
from repro.station.scenarios import build_calibrated_monitor, \
    calibration_cache_stats

__all__ = ["Session", "MonitorHandle", "resolve_record_every_n"]


def resolve_record_every_n(dt_s: float, snapshot_s: float | None,
                           record_every_n: int | None,
                           default: int = 20) -> int:
    """Resolve the unified ``snapshot_s`` cadence to a decimation count.

    ``snapshot_s`` (seconds between recorded points) and the legacy
    ``record_every_n`` (loop ticks between recorded points) are two
    spellings of one knob; passing both is ambiguous and refused.

    Raises
    ------
    ConfigurationError
        If both are given, or ``snapshot_s`` is not positive.
    """
    if snapshot_s is not None and record_every_n is not None:
        raise ConfigurationError(
            "pass snapshot_s or record_every_n, not both")
    if snapshot_s is not None:
        if snapshot_s <= 0.0:
            raise ConfigurationError("snapshot_s must be positive")
        return max(1, int(round(snapshot_s / dt_s)))
    if record_every_n is not None:
        return int(record_every_n)
    return default


@dataclass
class MonitorHandle:
    """One monitoring point owned by a session.

    Attributes
    ----------
    index:
        Position in the fleet (row index in every RunResult).
    seed:
        Instance seed spawned from the session seed; determines die
        tolerances, calibration and every noise stream.
    monitor / rig / calibration:
        The most recently materialized monitor, its rig, and the fitted
        calibration.  Re-materialized (same seed, same values) on every
        :meth:`Session.run`.
    """

    index: int
    seed: int
    monitor: WaterFlowMonitor
    rig: TestRig
    calibration: FlowCalibration


class Session:
    """N calibrated monitors with an open/calibrate/run/close lifecycle.

    Parameters
    ----------
    fleet:
        A :class:`~repro.runtime.FleetSpec` describing the fleet —
        possibly *mixed* (entries with different build configurations);
        :meth:`run` sub-batches a mixed fleet per config group through
        :class:`repro.runtime.mixed.MixedEngine`, bit-identical per rig
        to running its group alone.  The spec carries every build
        setting (``FleetSpec.homogeneous(n, seed=s, fast_calibration=
        True)`` and so on).  Mutually exclusive with ``n_monitors`` /
        ``seed``; scenario-bearing specs are refused (events belong to
        :func:`repro.station.run_campaign`).
    n_monitors:
        Fleet size of a homogeneous default-build fleet (default 1).
    seed:
        Session seed; per-monitor seeds are spawned from it with
        :class:`numpy.random.SeedSequence`, so fleets with different
        sizes share the leading monitors' realizations (default 42).
    chunk_size:
        Batch-engine noise pre-draw block length.
    checkpoint_dir:
        Durability root for this session (default None: no disk
        artifacts).  Enables two things: calibrations persist in (and
        materialize from) a :class:`repro.store.ArtifactStore` under
        ``<checkpoint_dir>/store``, so a fresh process skips the §4
        campaign with bit-identical outputs; and serial batch
        :meth:`run` calls advance in checkpointed windows
        (:func:`repro.runtime.checkpoint.run_durable`) that a crashed
        process can pick up with ``run(..., resume=True)`` —
        bit-identical to the uninterrupted run.
    """

    def __init__(self, n_monitors: int | None = None,
                 seed: int | None = None, *,
                 fleet: FleetSpec | None = None,
                 chunk_size: int = 1024,
                 checkpoint_dir=None) -> None:
        if fleet is not None:
            if n_monitors is not None or seed is not None:
                raise ConfigurationError(
                    "fleet= fully describes the fleet; do not combine it "
                    "with n_monitors/seed")
            if fleet.has_scenarios:
                raise ConfigurationError(
                    "this FleetSpec carries scenarios; run it with "
                    "repro.station.run_campaign, which owns event "
                    "injection")
            self._fleet = fleet
        else:
            n = 1 if n_monitors is None else int(n_monitors)
            if n < 1:
                raise ConfigurationError(
                    "session needs at least one monitor")
            self._fleet = FleetSpec.homogeneous(
                n, seed=42 if seed is None else int(seed))
        self.n_monitors = self._fleet.n_monitors
        self.seed = int(self._fleet.seed)
        self._chunk = int(chunk_size)
        self._state = "new"
        self._seeds: list[int] = []
        self._handles: list[MonitorHandle] = []
        self._dt = self._fleet.dt_s
        self._timings: dict[str, float] = {}
        self._runs = 0
        if checkpoint_dir is not None:
            from pathlib import Path

            from repro.store import ArtifactStore
            self._checkpoint_dir = Path(checkpoint_dir)
            self._store = ArtifactStore(self._checkpoint_dir / "store")
        else:
            self._checkpoint_dir = None
            self._store = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def state(self) -> str:
        """Lifecycle stage: ``new``, ``open``, ``calibrated`` or ``closed``."""
        return self._state

    def _expect(self, *states: str) -> None:
        if self._state not in states:
            raise SessionError(
                f"session is {self._state!r}; this call requires "
                f"{' or '.join(repr(s) for s in states)}")

    def open(self) -> "Session":
        """Spawn the per-monitor seed stream; must be called first."""
        self._expect("new")
        t0 = time.perf_counter()
        with get_tracer().span("session.open", n_monitors=self.n_monitors):
            self._seeds = self._fleet.monitor_seeds()
            self._state = "open"
        self._timings["open_s"] = time.perf_counter() - t0
        get_event_log().emit("session.state", state="open",
                             n_monitors=self.n_monitors, seed=self.seed)
        return self

    def calibrate(self) -> list[MonitorHandle]:
        """Build and calibrate every monitor; returns the fleet handles.

        The first calibration per seed runs the full §4 campaign; repeat
        materializations hit the calibration cache.
        """
        self._expect("open")
        t0 = time.perf_counter()
        with get_tracer().span("session.calibrate",
                               n_monitors=self.n_monitors):
            self._handles = self._materialize()
            self._state = "calibrated"
        self._timings["calibrate_s"] = time.perf_counter() - t0
        get_event_log().emit("session.state", state="calibrated",
                             n_monitors=self.n_monitors)
        return self._handles

    def run(self, profile: Profile, *,
            snapshot_s: float | None = None,
            collect: str = "result",
            engine: str = "batch",
            workers: int | None = None,
            numerics: str = "exact",
            record_every_n: int | None = None,
            resume: bool = False,
            backend: str = "spawn") -> RunResult | dict:
        """Run a line profile over the fleet; decimated traces out.

        This is the unified run surface (shared with
        :meth:`repro.station.rig.TestRig.run` and
        :meth:`repro.station.fleet.MonitoredNetwork.run`): everything
        after ``profile`` is keyword-only.

        Parameters
        ----------
        profile:
            Line profile to execute.
        snapshot_s:
            Seconds between recorded points (the unified cadence knob).
            Mutually exclusive with the legacy ``record_every_n``
            (loop ticks between points, default 20).
        collect:
            ``"result"`` returns the :class:`RunResult`; ``"summary"``
            returns ``RunResult.summary()`` (pooled statistics keyed by
            registry metric names).
        engine:
            ``"batch"`` uses the vectorized :class:`BatchEngine` — or,
            when the session's :class:`~repro.runtime.FleetSpec` is
            structurally mixed, the per-config-group
            :class:`repro.runtime.mixed.MixedEngine` (bit-identical per
            rig to running its group alone); ``"scalar"`` runs each rig
            through the per-sample reference path and stacks the
            records.  Both start from freshly materialized rigs, so
            with the same seeds the engines return bit-identical
            traces.
        workers:
            With ``engine="batch"`` and ``workers > 1`` the fleet is
            partitioned across that many worker processes by
            :class:`repro.runtime.parallel.ShardedEngine`; the merged
            result is bit-identical to the serial batch path for any
            worker count.  ``None`` (default) and 1 stay serial and
            in-process.  Refused for ``engine="scalar"``.
        numerics:
            Kernel numerics mode for the batch engines: ``"exact"``
            (default, bit-identical to the scalar reference path) or
            ``"fast"`` (vectorized transcendentals, ≤1e-9 relative
            error; see :mod:`repro.runtime.kernels`).  A
            :class:`~repro.runtime.kernels.Numerics` policy is accepted
            too.  Refused (``reason="numerics"``) for
            ``engine="scalar"`` with ``"fast"`` — the scalar reference
            path *is* the exact contract and has no fast kernels.
        resume:
            Continue this run from the checkpoint a previous (crashed)
            process left under the session's ``checkpoint_dir``.
            Requires a checkpointed session with a batch run; the
            resumed result is bit-identical to an uninterrupted one.
            The checkpoint records the engine configuration, so a
            ``workers`` override is refused on resume — the restored
            engine keeps the shape it started with.
        backend:
            Only ``"spawn"`` (per-call worker processes, the one
            parallel backend) is accepted; anything else is refused
            with ``reason="backend"``.  The parameter stays only
            because the end-to-end benchmark reads its default, and it
            goes when the benchmark stops reading it.
        """
        self._expect("calibrated")
        if engine not in ("batch", "scalar"):
            raise ConfigurationError(
                f"unknown engine {engine!r}; use 'batch' or 'scalar'")
        if collect not in ("result", "summary"):
            raise ConfigurationError(
                f"unknown collect {collect!r}; use 'result' or 'summary'")
        if workers is not None and workers != 1 and engine != "batch":
            raise ConfigurationError(
                "workers > 1 requires engine='batch' (the scalar "
                "reference path is serial by construction)")
        mode = resolve_numerics(numerics)
        if mode != "exact" and engine != "batch":
            raise ConfigurationError(
                "numerics='fast' requires engine='batch' (the scalar "
                "reference path is the exact contract itself)",
                reason="numerics")
        if backend != "spawn":
            raise ConfigurationError(
                f"unknown parallel backend {backend!r}; the only backend "
                f"is 'spawn'", reason="backend")
        every = resolve_record_every_n(self._dt, snapshot_s, record_every_n)
        if every < 1:
            raise ConfigurationError("record_every_n must be >= 1")
        durable = (self._checkpoint_dir is not None and engine == "batch")
        if resume and not durable:
            raise ConfigurationError(
                "resume=True needs a checkpointed batch run: a "
                "Session(checkpoint_dir=...) with engine='batch'")
        if resume and workers not in (None, 1):
            raise ConfigurationError(
                "resume=True continues the engine configuration recorded "
                "in the checkpoint; a workers override doesn't apply "
                "to a resumed run — rerun without it")
        t0 = time.perf_counter()
        with get_tracer().span("session.run", engine=engine,
                               numerics=mode,
                               n_monitors=self.n_monitors):
            self._handles = self._materialize()
            rigs = [handle.rig for handle in self._handles]
            mixed = False
            if engine == "batch" and len(self._fleet.rigs) > 1:
                # A multi-entry spec may be structurally mixed; group on
                # the materialized rigs (entries that differ only in
                # realized values still share one BatchEngine).
                from repro.runtime.mixed import MixedEngine, fleet_groups
                mixed = len(fleet_groups(rigs)) > 1
            if durable:
                from repro.runtime.checkpoint import run_durable
                result = run_durable(
                    rigs, profile, record_every_n=every,
                    checkpoint_path=(self._checkpoint_dir /
                                     f"run-{self._runs}.ckpt"),
                    resume=resume, chunk_size=self._chunk, numerics=mode,
                    workers=workers)
            elif mixed:
                result = MixedEngine(
                    rigs, chunk_size=self._chunk, numerics=mode).run(
                    profile, record_every_n=every, workers=workers)
            elif engine == "batch" and workers is not None and workers != 1:
                from repro.runtime.parallel import ShardedEngine
                result = ShardedEngine(
                    rigs, workers=workers, chunk_size=self._chunk,
                    numerics=mode).run(
                    profile, record_every_n=every)
            elif engine == "batch":
                result = BatchEngine(rigs, chunk_size=self._chunk,
                                     numerics=mode).run(
                    profile, record_every_n=every)
            else:
                result = RunResult.from_records(
                    [rig.run(profile, record_every_n=every) for rig in rigs])
        elapsed = time.perf_counter() - t0
        self._timings["run_s"] = elapsed
        self._runs += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("runtime.session.runs").inc()
            registry.histogram("runtime.session.run_s").observe(elapsed)
            for name, stats in result.summary().items():
                registry.gauge(f"{name}.mean").set(stats["mean"])
        get_event_log().emit("session.run", engine=engine,
                             n_monitors=self.n_monitors,
                             duration_s=profile.duration_s)
        if collect == "summary":
            return result.summary()
        return result

    def stats(self) -> dict:
        """Session-level observability snapshot (always available).

        Returns lifecycle timings measured by the session itself, the
        calibration-LRU statistics, and — when observability is enabled
        — the process-wide metrics snapshot under ``"metrics"`` and the
        per-stage profiler report under ``"profile"`` (empty unless the
        profiler was enabled; merged worker stages included for sharded
        runs).
        """
        registry = get_registry()
        return {
            "state": self._state,
            "n_monitors": self.n_monitors,
            "seed": self.seed,
            "runs": self._runs,
            "timings_s": dict(self._timings),
            "calibration_cache": calibration_cache_stats(),
            "store": self._store.stats() if self._store is not None else {},
            "metrics": registry.snapshot() if registry.enabled else {},
            "profile": get_profiler().report(),
        }

    def close(self) -> None:
        """End the session; any further stage call raises SessionError."""
        self._state = "closed"
        self._handles = []
        get_event_log().emit("session.state", state="closed",
                             n_monitors=self.n_monitors)

    # -- conveniences --------------------------------------------------------

    @property
    def monitors(self) -> list[MonitorHandle]:
        """The fleet handles (valid after :meth:`calibrate`)."""
        self._expect("calibrated")
        return list(self._handles)

    def __enter__(self) -> "Session":
        if self._state == "new":
            self.open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _materialize(self) -> list[MonitorHandle]:
        """Build fresh handles from the per-position seeds and specs.

        A checkpointed session passes its artifact store down, so the
        first materialization in a fresh process restores persisted
        calibrations instead of re-running campaigns.
        """
        return [
            MonitorHandle(index=i, seed=s,
                          monitor=setup.monitor, rig=setup.rig,
                          calibration=setup.calibration)
            for i, (s, entry) in enumerate(zip(self._seeds,
                                               self._fleet.flat()))
            for setup in (build_calibrated_monitor(seed=s,
                                                   store=self._store,
                                                   **entry.build_kwargs()),)
        ]
