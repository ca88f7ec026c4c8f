"""Session lifecycle for fleet-scale monitor simulation.

A :class:`Session` owns N calibrated monitoring points and runs line
profiles over all of them at once on the vectorized engine
(:class:`~repro.runtime.mixed.MixedEngine`), bit-identical to running
each rig through :meth:`TestRig.run <repro.station.rig.TestRig.run>`,
the scalar reference loop.  The lifecycle is explicit::

    with Session(fleet=FleetSpec.homogeneous(16, seed=2024)) as session:
        session.calibrate()
        result = session.run(staircase([0, 50, 100], dwell_s=4.0))
    # leaving the block -> close()

``calibrate`` resolves each monitor's calibration once — from the
process-wide LRU, the artifact store or a §4 campaign — and the session
keeps the resulting (calibration, post-campaign sensor snapshot) pairs
until ``close``.  ``run`` may be called any number of times, and never
consults the LRU, the store or a campaign again.  Every run starts from
the same freshly-built post-calibration state by one path: it rewinds a
step-0 engine the session built from those pairs on its first run with
the same effective worker count.  Serial, durable and
parallel runs all go that way; only ``calibrate`` and each engine's
first build assemble monitors.  Calling a stage out of order raises
:class:`~repro.errors.SessionError`.
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
from repro.runtime.mixed import MixedEngine, fleet_groups
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

__all__ = ["Session", "MonitorHandle"]


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
        The monitor :meth:`Session.calibrate` assembled, its rig, and
        the fitted calibration.  They are the caller's: runs never read
        or advance them.
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
        True)`` and so on); per-monitor seeds are spawned from the spec
        seed (:meth:`~repro.runtime.FleetSpec.monitor_seeds`).  Default:
        ``FleetSpec.homogeneous()``, one default-build monitor with seed
        42.  Scenario-bearing specs are refused (events belong to
        :func:`repro.station.run_campaign`).
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

    def __init__(self, *, fleet: FleetSpec | None = None,
                 checkpoint_dir=None) -> None:
        if fleet is None:
            fleet = FleetSpec.homogeneous()
        if fleet.has_scenarios:
            raise ConfigurationError(
                "this FleetSpec carries scenarios; run it with "
                "repro.station.run_campaign, which owns event injection")
        self._fleet = fleet
        self.n_monitors = self._fleet.n_monitors
        self.seed = int(self._fleet.seed)
        self._state = "new"
        self._seeds: list[int] = []
        self._handles: list[MonitorHandle] = []
        self._records: list[tuple[FlowCalibration, dict]] = []
        self._dt = self._fleet.dt_s
        self._timings: dict[str, float] = {}
        self._runs = 0
        # Step-0 engines of every run, by effective worker count.
        self._templates: dict[int, MixedEngine] = {}
        # Config groups of the fleet, counted at calibrate.
        self._n_groups = 0
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
            self._n_groups = len(fleet_groups(
                [handle.rig for handle in self._handles]))
            self._state = "calibrated"
        self._timings["calibrate_s"] = time.perf_counter() - t0
        get_event_log().emit("session.state", state="calibrated",
                             n_monitors=self.n_monitors)
        return self._handles

    def run(self, profile: Profile, *,
            workers: int | None = None,
            record_every_n: int = 20,
            resume: bool = False,
            backend: str = "spawn") -> RunResult:
        """Run a line profile over the fleet; decimated traces out.

        This is the unified run surface (shared with
        :meth:`repro.station.rig.TestRig.run` and
        :meth:`repro.station.fleet.MonitoredNetwork.run`): everything
        after ``profile`` is keyword-only.

        The fleet runs on one :class:`repro.runtime.mixed.MixedEngine`:
        a homogeneous fleet takes its single-group path (byte-identical
        to a plain :class:`~repro.runtime.batch.BatchEngine`), a
        structurally mixed :class:`~repro.runtime.FleetSpec` is
        sub-batched per config group (bit-identical per rig to running
        its group alone).  Every run reuses the session's engine for
        its effective worker count, rewound to step 0
        (:meth:`MixedEngine.rewind
        <repro.runtime.mixed.MixedEngine.rewind>`); the first such run
        builds it from freshly assembled rigs.  With the same seeds
        every row is bit-identical to :meth:`TestRig.run
        <repro.station.rig.TestRig.run>` on a fresh rig, whatever ran
        before.  A checkpointed session advances that engine in durable
        windows (:func:`repro.runtime.checkpoint.run_durable`).

        Parameters
        ----------
        profile:
            Line profile to execute.
        workers:
            With ``workers > 1`` and a fleet of several config groups,
            each group runs as one job in up to that many worker
            processes (:mod:`repro.runtime.parallel`); the merged
            result is bit-identical to the serial path for any worker
            count.  A one-group fleet, ``None`` (default) and 1 stay
            serial and in-process.  The effective count is
            ``min(workers or 1, number of config groups)``.
        record_every_n:
            Loop ticks between recorded points (default 20: 50 Hz at
            the 1 kHz loop).
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
        if backend != "spawn":
            raise ConfigurationError(
                f"unknown parallel backend {backend!r}; the only backend "
                f"is 'spawn'", reason="backend")
        if record_every_n < 1:
            raise ConfigurationError("record_every_n must be >= 1")
        if workers is not None and int(workers) < 1:
            raise ConfigurationError("workers must be a positive integer")
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
        with get_tracer().span("session.run", n_monitors=self.n_monitors):
            engine = self._engine(workers)
            if durable:
                from repro.runtime.checkpoint import run_durable
                result = run_durable(
                    engine, profile, record_every_n=record_every_n,
                    checkpoint_path=(self._checkpoint_dir /
                                     f"run-{self._runs}.ckpt"),
                    resume=resume)
            else:
                result = engine.run(profile, record_every_n=record_every_n)
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
        return result

    def stats(self) -> dict:
        """Session-level observability snapshot (always available).

        Returns lifecycle timings measured by the session itself, the
        calibration-LRU statistics, and — when observability is enabled
        — the process-wide metrics snapshot under ``"metrics"`` and the
        per-stage profiler report under ``"profile"`` (empty unless the
        profiler was enabled; merged worker stages included for
        parallel runs).
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
        self._templates = {}
        get_event_log().emit("session.state", state="closed",
                             n_monitors=self.n_monitors)

    # -- conveniences --------------------------------------------------------

    @property
    def monitors(self) -> list[MonitorHandle]:
        """The handles :meth:`calibrate` returned; runs never touch them."""
        self._expect("calibrated")
        return list(self._handles)

    def __enter__(self) -> "Session":
        if self._state == "new":
            self.open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _engine(self, workers: int | None) -> MixedEngine:
        """This session's step-0 engine for ``workers``, rewound (built
        on first use).

        A one-group fleet runs in-process whatever ``workers`` says
        (:class:`MixedEngine`), so it shares the serial engine.
        """
        key = min(int(workers or 1), self._n_groups)
        engine = self._templates.get(key)
        if engine is None:
            rigs = [handle.rig for handle in self._materialize()]
            engine = self._templates[key] = MixedEngine(rigs, workers=key)
        else:
            engine.rewind()
        return engine

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
