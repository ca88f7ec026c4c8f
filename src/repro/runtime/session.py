"""Session lifecycle for fleet-scale monitor simulation.

A :class:`Session` owns N calibrated monitoring points and runs line
profiles over all of them at once on the vectorized engine
(:class:`~repro.runtime.mixed.MixedEngine`), bit-identical to running
each rig through :meth:`TestRig.run <repro.station.rig.TestRig.run>`,
the scalar reference loop.  The lifecycle is explicit::

    with Session(n_monitors=16, seed=2024) as session:   # -> open()
        session.calibrate()
        result = session.run(staircase([0, 50, 100], dwell_s=4.0))
    # leaving the block -> close()

``calibrate`` resolves each monitor's calibration once — from the
process-wide LRU, the artifact store or a §4 campaign — and the session
keeps the resulting (calibration, post-campaign sensor snapshot) pairs
until ``close``.  ``run`` may be called any number of times: each call
assembles fresh rigs from those pairs without consulting the LRU, the
store or a campaign again, so every run starts from the same
freshly-built post-calibration state.  Calling a stage out of order
raises :class:`~repro.errors.SessionError`.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError, SessionError
from repro.observability import (get_event_log, get_profiler,
                                 get_registry, get_tracer)
from repro.conditioning.calibration import FlowCalibration
from repro.conditioning.monitor import WaterFlowMonitor
from repro.runtime.kernels import resolve_numerics
from repro.runtime.mixed import MixedEngine
from repro.runtime.result import RunResult
from repro.runtime.spec import FleetSpec
from repro.station.profiles import Profile
from repro.station.rig import TestRig
# ``build_calibrated_monitor`` stays importable from here only so that
# the benchmark's wrapper of that name still resolves; set-up no longer
# calls it (``calibrate`` resolves records with ``_calibration_records``),
# so the wrapper sees no set-up builds.
from repro.station.scenarios import (_assemble, _calibration_records,
                                     build_calibrated_monitor,
                                     calibration_cache_stats)

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
        calibration.  Re-assembled (same seed, same values) on every
        :meth:`Session.run` from the calibration the session kept at
        :meth:`Session.calibrate`.
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
    checkpoint_dir:
        Durability root for this session (default None: no disk
        artifacts).  Enables two things: calibrations persist in (and
        materialize from) a :class:`repro.store.ArtifactStore` under
        ``<checkpoint_dir>/store``, so a fresh process skips the §4
        campaign with bit-identical outputs; and :meth:`run` calls
        advance in checkpointed windows
        (:func:`repro.runtime.checkpoint.run_durable`) that a crashed
        process can pick up with ``run(..., resume=True)`` —
        bit-identical to the uninterrupted run.
    """

    def __init__(self, n_monitors: int | None = None,
                 seed: int | None = None, *,
                 fleet: FleetSpec | None = None,
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
        self._state = "new"
        self._seeds: list[int] = []
        self._handles: list[MonitorHandle] = []
        self._records: list[tuple[FlowCalibration, dict]] = []
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

        Each monitor's calibration comes from the process-wide LRU, the
        session's artifact store or, failing both, a full §4 campaign.
        The fleet's misses calibrate together: campaigns of monitors
        built alike run as one batch engine, bit-identical to running
        them one by one.  The session keeps every (calibration,
        post-campaign sensor snapshot) pair until :meth:`close`, so
        :meth:`run` never calibrates again, however large the fleet.
        """
        self._expect("open")
        t0 = time.perf_counter()
        with get_tracer().span("session.calibrate",
                               n_monitors=self.n_monitors):
            builds = [dict(seed=s, **entry.build_kwargs())
                      for s, entry in zip(self._seeds, self._fleet.flat())]
            records = _calibration_records(builds, store=self._store)
            # Own copies: the LRU shares its records with later builds.
            self._records = [(calibration, copy.deepcopy(snapshot))
                             for calibration, snapshot in records]
            self._handles = self._materialize()
            self._state = "calibrated"
        self._timings["calibrate_s"] = time.perf_counter() - t0
        get_event_log().emit("session.state", state="calibrated",
                             n_monitors=self.n_monitors)
        return self._handles

    def run(self, profile: Profile, *,
            snapshot_s: float | None = None,
            collect: str = "result",
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

        The fleet runs on one :class:`repro.runtime.mixed.MixedEngine`
        built from freshly materialized rigs: a homogeneous fleet takes
        its single-group path (byte-identical to a plain
        :class:`~repro.runtime.batch.BatchEngine`), a structurally mixed
        :class:`~repro.runtime.FleetSpec` is sub-batched per config
        group (bit-identical per rig to running its group alone).  With
        the same seeds every row is bit-identical to
        :meth:`TestRig.run <repro.station.rig.TestRig.run>` on a fresh
        rig.  A checkpointed session advances that engine in durable
        windows instead (:func:`repro.runtime.checkpoint.run_durable`).

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
        workers:
            With ``workers > 1`` each config group is partitioned
            across up to that many worker processes by
            :class:`repro.runtime.parallel.ShardedEngine`; the merged
            result is bit-identical to the serial path for any worker
            count.  ``None`` (default) and 1 stay serial and in-process.
        numerics:
            Kernel numerics mode: ``"exact"`` (default, bit-identical
            to the scalar reference path) or ``"fast"`` (vectorized
            transcendentals, ≤1e-9 relative error; see
            :mod:`repro.runtime.kernels`).  A
            :class:`~repro.runtime.kernels.Numerics` policy is accepted
            too.
        resume:
            Continue this run from the checkpoint a previous (crashed)
            process left under the session's ``checkpoint_dir``.
            Requires a checkpointed session; the resumed result is
            bit-identical to an uninterrupted one.  The checkpoint
            records the engine configuration, so a ``workers`` override
            is refused on resume — the restored engine keeps the shape
            it started with.
        backend:
            Only ``"spawn"`` (per-call worker processes, the one
            parallel backend) is accepted; anything else is refused
            with ``reason="backend"``.  The parameter stays only
            because the end-to-end benchmark reads its default, and it
            goes when the benchmark stops reading it.
        """
        self._expect("calibrated")
        if collect not in ("result", "summary"):
            raise ConfigurationError(
                f"unknown collect {collect!r}; use 'result' or 'summary'")
        mode = resolve_numerics(numerics)
        if backend != "spawn":
            raise ConfigurationError(
                f"unknown parallel backend {backend!r}; the only backend "
                f"is 'spawn'", reason="backend")
        every = resolve_record_every_n(self._dt, snapshot_s, record_every_n)
        if every < 1:
            raise ConfigurationError("record_every_n must be >= 1")
        durable = self._checkpoint_dir is not None
        if resume and not durable:
            raise ConfigurationError(
                "resume=True needs a checkpointed session: "
                "Session(checkpoint_dir=...)")
        if resume and workers not in (None, 1):
            raise ConfigurationError(
                "resume=True continues the engine configuration recorded "
                "in the checkpoint; a workers override doesn't apply "
                "to a resumed run — rerun without it")
        t0 = time.perf_counter()
        with get_tracer().span("session.run", numerics=mode,
                               n_monitors=self.n_monitors):
            self._handles = self._materialize()
            rigs = [handle.rig for handle in self._handles]
            if durable:
                from repro.runtime.checkpoint import run_durable
                result = run_durable(
                    rigs, profile, record_every_n=every,
                    checkpoint_path=(self._checkpoint_dir /
                                     f"run-{self._runs}.ckpt"),
                    resume=resume, numerics=mode, workers=workers)
            else:
                result = MixedEngine(
                    rigs, numerics=mode, workers=workers).run(
                        profile, record_every_n=every)
        elapsed = time.perf_counter() - t0
        self._timings["run_s"] = elapsed
        self._runs += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("runtime.session.runs").inc()
            registry.histogram("runtime.session.run_s").observe(elapsed)
            for name, stats in result.summary().items():
                registry.gauge(f"{name}.mean").set(stats["mean"])
        get_event_log().emit("session.run", n_monitors=self.n_monitors,
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
        self._records = []
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
        """Assemble fresh handles from the calibrations kept at calibrate."""
        return [
            MonitorHandle(index=i, seed=s,
                          monitor=setup.monitor, rig=setup.rig,
                          calibration=setup.calibration)
            for i, (s, entry, record) in enumerate(zip(
                self._seeds, self._fleet.flat(), self._records))
            for setup in (_assemble(record, seed=s,
                                    **entry.build_kwargs()),)
        ]
