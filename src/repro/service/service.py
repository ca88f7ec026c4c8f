"""The resident fleet service: many client sessions, shared engine ticks.

:class:`FleetService` is a long-lived asyncio component that multiplexes
concurrent client runs onto shared engine advances.  Clients
:meth:`~FleetService.attach` a profile with their own fleet description
(a :class:`~repro.runtime.FleetSpec`, or a homogeneous default-build
size/seed pair); the service groups clients who share a profile,
cadence, loop rate and numerics into *cohorts* — build configurations
may differ freely, because each cohort runs on a
:class:`~repro.runtime.mixed.MixedEngine` that sub-batches per config
group — advances each cohort in bounded tick slices, and streams every
client its own rows of each window through a bounded
:class:`~repro.service.streams.SnapshotStream`.

The engine guarantees the service leans on (see
:meth:`BatchEngine.advance <repro.runtime.batch.BatchEngine.advance>` and
:meth:`BatchEngine.drop <repro.runtime.batch.BatchEngine.drop>`, which
:class:`~repro.runtime.mixed.MixedEngine` mirrors per config group):

- advancing in arbitrary tick slices is bit-identical to one
  uninterrupted run, so streamed windows concatenate into exactly the
  result a standalone ``Session.run`` returns;
- per-monitor state and RNG streams are independent, so a client's rows
  inside a shared cohort are bit-identical to a cohort of its own, and
  a detaching client's rows can be dropped without perturbing the rest.

Concurrency model: everything runs on one event loop; the tick loop
never awaits inside a tick, so attach/detach mutations — which run as
coroutines on the same loop — are naturally serialized *between* ticks
with no locks.  Backpressure is cooperative: a cohort only ticks while
every member's stream has space, so one slow consumer stalls its cohort
(bounded memory) without blocking other cohorts.

Crash recovery: every cohort is a
:class:`~repro.runtime.checkpoint.WindowedRun`, the windowed-run driver
durable runs and campaigns share.  With ``checkpoint_dir=`` the driver
snapshots every sealed cohort after each non-final tick — the live
:class:`~repro.runtime.mixed.MixedEngine` plus each member's streamed
windows, a consistent pair — into ``cohort-<id>.ckpt`` artifacts, and
deletes them when the cohort completes, crashes deterministically, or
empties.  After a process death, :func:`recover_cohorts` lists the
orphaned cohorts and each :class:`RecoveredCohort` can :meth:`~
RecoveredCohort.resume` — advancing the engine to the horizon and
stitching per-client results bit-identical to what the uninterrupted
service would have streamed.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path
from typing import AsyncIterator

import numpy as np

from repro.errors import ConfigurationError, ReproError, ServiceError
from repro.observability import get_event_log, get_registry, get_tracer
from repro.runtime.checkpoint import WindowedRun
from repro.runtime.mixed import MixedEngine
from repro.runtime.result import RunResult
from repro.runtime.session import Session, resolve_record_every_n
from repro.runtime.spec import FleetSpec
from repro.runtime.kernels import resolve_numerics
from repro.service.streams import Snapshot, SnapshotStream
from repro.station.health import RigHealthTracker, fleet_reference
from repro.station.profiles import Profile

__all__ = ["FleetService", "ClientSession", "RecoveredCohort",
           "recover_cohorts"]


def _empty_result(n: int) -> RunResult:
    """A zero-tick result for an ``n``-monitor fleet (detach before data)."""
    empty = np.empty((n, 0))
    return RunResult(
        time_s=np.empty(0),
        true_speed_mps=empty,
        reference_mps=empty.copy(),
        measured_mps=empty.copy(),
        direction=np.empty((n, 0), dtype=np.int64),
        pressure_pa=empty.copy(),
        temperature_k=empty.copy(),
        bubble_coverage=empty.copy(),
    )


def _slice_rows(window: RunResult, lo: int, hi: int) -> RunResult:
    """A client's rows ``[lo, hi)`` of a cohort window (copies)."""
    return RunResult(
        time_s=window.time_s.copy(),
        **{name: getattr(window, name)[lo:hi].copy()
           for name in RunResult.STACKED_FIELDS},
    )


class _Member:
    """Service-side bookkeeping for one attached client."""

    __slots__ = ("client", "session", "rigs", "n", "stream", "windows",
                 "future", "group", "finalized", "done", "health")

    def __init__(self, client: "ClientSession", session: Session,
                 rigs: list, stream: SnapshotStream) -> None:
        self.client = client
        self.session = session
        self.rigs = rigs
        self.n = len(rigs)
        self.stream = stream
        self.windows: list[RunResult] = []
        self.done = 0  # frozen off the cohort clock at finalize
        # One streaming RigHealthTracker per rig, fed each tick window
        # against the cohort reference (built lazily at the first tick).
        self.health: list[RigHealthTracker] = []
        self.future: asyncio.Future[RunResult] = (
            asyncio.get_running_loop().create_future())
        # Results are also streamed; never let an unawaited future warn.
        self.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        self.group: "_Group | None" = None
        self.finalized = False


class _Group:
    """One cohort: clients sharing a profile, cadence, loop rate and
    numerics — build configurations may differ, the cohort engine is a
    :class:`~repro.runtime.mixed.MixedEngine` sub-batching per config
    group.

    A cohort is *open* while its engine is unbuilt — attaches with the
    same key keep joining.  The first tick seals it (builds the engine
    from every member's rigs, in attach order); later attaches with the
    same key start a fresh cohort, because a running engine cannot admit
    new rigs without disturbing the shared clocks.  The cohort's
    :class:`~repro.runtime.checkpoint.WindowedRun` carries the profile,
    horizon, cadence, offset and (once sealed) the engine.
    """

    __slots__ = ("group_id", "key", "numerics", "chunk_size", "members",
                 "run")

    def __init__(self, group_id: int, key: tuple, run: WindowedRun,
                 numerics: str, chunk_size: int) -> None:
        self.group_id = group_id
        self.key = key
        self.run = run
        self.numerics = numerics
        self.chunk_size = chunk_size
        self.members: list[_Member] = []

    def ready(self) -> bool:
        """Whether every member's stream can take one more snapshot."""
        return all(m.stream.has_space for m in self.members)


class ClientSession:
    """A client's handle on its run inside the fleet service.

    Returned by :meth:`FleetService.attach`.  The client consumes
    incremental :class:`~repro.service.streams.Snapshot` windows through
    :meth:`snapshots` (or one at a time via :meth:`snapshot`), awaits
    the stitched final :class:`~repro.runtime.result.RunResult` from
    :meth:`result`, and may leave early with :meth:`detach` — which
    finalizes a *partial* result bit-identical to a standalone
    ``Session.run`` of the same config/seed over the completed horizon.
    """

    def __init__(self, service: "FleetService", client_id: str,
                 trace_id: str, seed: int, n_monitors: int,
                 total_steps: int, record_every_n: int) -> None:
        self.client_id = client_id
        self.trace_id = trace_id
        self.seed = seed
        self.n_monitors = n_monitors
        self.total_steps = total_steps
        self.record_every_n = record_every_n
        self._service = service
        self._member: _Member | None = None  # linked by attach

    @property
    def done_steps(self) -> int:
        """Engine samples completed for this client so far.

        Frozen at detach/completion: the surviving cohort advancing
        further does not move a finalized client's count.
        """
        member = self._member
        if member is None:
            return 0
        if member.finalized or member.group is None:
            return member.done
        return member.group.run.done

    @property
    def group_id(self) -> int:
        """The cohort this client was multiplexed into."""
        member = self._member
        if member is None or member.group is None:
            raise ServiceError("client is not attached", reason="detached")
        return member.group.group_id

    @property
    def attached(self) -> bool:
        """False once the run completed, crashed, or the client left."""
        member = self._member
        return member is not None and not member.finalized

    @property
    def stream_depth(self) -> int:
        """Snapshots queued and not yet consumed (bounded)."""
        if self._member is None:
            return 0
        return self._member.stream.depth

    def health(self) -> list[dict]:
        """Per-rig fused health reports (see :mod:`repro.station.health`).

        One dict per monitor row (``rig``, ``score``, ``status``,
        ``components``, ...), updated by the service at every tick from
        the cohort-reference residuals.  Empty before the first tick.
        """
        member = self._member
        if member is None:
            return []
        reports = []
        for rig, tracker in enumerate(member.health):
            report = tracker.report()
            report["rig"] = rig
            reports.append(report)
        return reports

    async def snapshot(self) -> Snapshot | None:
        """Next streamed window, or None once the stream ended.

        Raises
        ------
        ReproError
            The typed engine fault, if the shared engine crashed, or a
            :class:`~repro.errors.ServiceError` if the service stopped
            under the client.
        """
        if self._member is None:
            raise ServiceError("client is not attached", reason="detached")
        return await self._member.stream.get()

    async def snapshots(self) -> AsyncIterator[Snapshot]:
        """Async-iterate the streamed windows until the run ends.

        Terminates normally at the horizon (or after a detach); raises
        the propagated typed exception if the shared engine crashed.
        """
        while True:
            snap = await self.snapshot()
            if snap is None:
                return
            yield snap

    async def result(self) -> RunResult:
        """Await the stitched run result (full horizon, or the partial
        finalized by :meth:`detach`).

        Raises
        ------
        ReproError
            The typed engine fault if the shared engine crashed, or a
            :class:`~repro.errors.ServiceError` if the service stopped.
        """
        if self._member is None:
            raise ServiceError("client is not attached", reason="detached")
        return await self._member.future

    async def detach(self) -> RunResult:
        """Leave the cohort now; returns the partial result so far.

        The service removes this client's rigs from the shared engine
        (bit-preserving for the remaining members) and finalizes the
        windows streamed so far into a partial
        :class:`~repro.runtime.result.RunResult` — bit-identical to a
        standalone ``Session.run`` of the same config/seed over
        :attr:`done_steps` samples.

        Raises
        ------
        ServiceError
            If the client already detached or its run already finished
            (``reason="detached"``).
        """
        return await self._service._detach(self)


class FleetService:
    """Long-lived multiplexer of client runs onto shared engine ticks.

    Parameters
    ----------
    tick_steps:
        Upper bound on engine samples per cohort tick — the streaming
        granularity.  Each tick yields one snapshot per member, so
        smaller ticks stream finer windows at more coalescing overhead.
    max_pending:
        Per-client snapshot queue bound.  A cohort only ticks while
        every member has queue space, so a slow consumer stalls its
        cohort at ``max_pending`` buffered windows (bounded memory)
        without affecting other cohorts.
    chunk_size:
        Noise pre-draw block length for cohort engines (bit-invariant;
        a locality/memory trade-off only).
    checkpoint_dir:
        When given, every sealed cohort is snapshotted to
        ``cohort-<id>.ckpt`` under this directory after each tick (and
        the artifact deleted once the cohort ends), so a process death
        strands no compute: :func:`recover_cohorts` salvages the
        orphans and finishes their runs bit-identically.
    workers:
        Shard every cohort's ticks across worker processes
        (:class:`~repro.runtime.mixed.MixedEngine` with fixed workers);
        each tick spawns and reaps its shard workers.  Streamed windows
        are bit-identical for any setting.
    sample_every_s / http_port / http_host:
        Wire up the live observability plane
        (:mod:`repro.observability.live`): ``sample_every_s`` starts a
        background :class:`~repro.observability.live.SnapshotPipeline`
        at that cadence, ``http_port`` additionally serves
        ``/metrics``, ``/health``, ``/ready`` and ``/snapshot`` on a
        stdlib HTTP thread (``http_port`` alone implies a 0.5 s
        cadence; ``http_port=0`` picks a free port — read it back from
        :attr:`http_url`).  Neither touches the tick path: streamed
        windows stay bit-identical with the plane on or off.
    health_scores:
        Keep per-rig :class:`~repro.station.health.RigHealthTracker`
        scores updated at every tick (default on; the fused scores feed
        ``/health`` and :meth:`ClientSession.health`).

    Lifecycle: ``await start()`` spawns the tick loop, ``await stop()``
    fails the remaining clients with :class:`~repro.errors.ServiceError`
    and cancels it; ``async with`` does both.  :meth:`attach` may be
    called before ``start`` — those clients simply wait for the loop.
    """

    def __init__(self, *, tick_steps: int = 1000, max_pending: int = 8,
                 chunk_size: int = 1024, checkpoint_dir=None,
                 workers: int | None = None,
                 sample_every_s: float | None = None,
                 http_port: int | None = None,
                 http_host: str = "127.0.0.1",
                 health_scores: bool = True) -> None:
        if tick_steps < 1:
            raise ConfigurationError("tick_steps must be >= 1")
        if max_pending < 1:
            raise ConfigurationError("max_pending must be >= 1")
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        if http_port is not None and sample_every_s is None:
            sample_every_s = 0.5  # an HTTP plane without samples is useless
        if sample_every_s is not None and sample_every_s <= 0.0:
            raise ConfigurationError("sample_every_s must be > 0")
        self._tick_steps = int(tick_steps)
        self._max_pending = int(max_pending)
        self._chunk = int(chunk_size)
        # Cohort parallelism: every sealed cohort's engine shards its
        # ticks across this many workers.
        self._workers = None if workers is None else int(workers)
        self._checkpoint_dir = (None if checkpoint_dir is None
                                else Path(checkpoint_dir))
        self._groups: dict[int, _Group] = {}
        self._open_by_key: dict[tuple, _Group] = {}
        self._members: set[_Member] = set()
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._stopped = False
        self._client_seq = 0
        self._group_seq = 0
        self._counters = {
            "attaches": 0, "detaches": 0, "ticks": 0, "snapshots": 0,
            "backpressure_stalls": 0, "completed": 0, "crashed_groups": 0,
        }
        # Live observability plane (repro.observability.live), started
        # and stopped with the service when configured.
        self._sample_every = (None if sample_every_s is None
                              else float(sample_every_s))
        self._http_port = None if http_port is None else int(http_port)
        self._http_host = http_host
        self._health_scores = bool(health_scores)
        self._pipeline = None
        self._http = None
        self._last_tick_monotonic: float | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the tick loop is live."""
        return self._task is not None and not self._task.done()

    async def start(self) -> "FleetService":
        """Spawn the tick loop (idempotent until :meth:`stop`).

        Raises
        ------
        ServiceError
            If the service was already stopped (``reason="stopped"``).
        """
        if self._stopped:
            raise ServiceError("service already stopped", reason="stopped")
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._loop())
        if self._sample_every is not None and self._pipeline is None:
            from repro.observability.live import SnapshotPipeline
            self._pipeline = SnapshotPipeline(
                cadence_s=self._sample_every,
                sources={"service": self.stats, "health": self.health})
            self._pipeline.start()
        if self._http_port is not None and self._http is None:
            from repro.observability.live import LiveServer
            self._http = LiveServer(
                pipeline=self._pipeline,
                health_source=self.health,
                ready_source=lambda: self.running and not self._stopped,
                host=self._http_host, port=self._http_port)
            self._http.start()
        return self

    async def stop(self) -> None:
        """Stop the loop; fail still-attached clients (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        exc = ServiceError("service stopped", reason="stopped")
        for member in list(self._members):
            self._finalize(member, error=exc)
        for group in self._groups.values():
            group.run.close()
        self._groups.clear()
        self._open_by_key.clear()
        if self._http is not None:
            self._http.stop()
            self._http = None
        if self._pipeline is not None:
            self._pipeline.stop()
        get_event_log().emit("service.stop")

    async def __aenter__(self) -> "FleetService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- client surface ------------------------------------------------------

    async def attach(self, profile: Profile, *,
                     fleet: FleetSpec | None = None,
                     n_monitors: int | None = None,
                     seed: int | None = None,
                     snapshot_s: float | None = None,
                     record_every_n: int | None = None,
                     numerics: str = "exact") -> ClientSession:
        """Join the service with a profile; returns the client handle.

        Builds (and calibrates) a :class:`~repro.runtime.Session` for
        the client's fleet — a :class:`~repro.runtime.FleetSpec` via
        ``fleet=`` (possibly mixed), or ``n_monitors``/``seed`` for a
        homogeneous default-build fleet — the same deterministic
        materialization a standalone run uses, which is what makes the
        streamed rows bit-identical to ``Session.run`` — then queues
        the rigs into an *open* cohort of clients sharing this profile,
        cadence, loop rate and numerics.  Build configurations may
        differ across a cohort's members: the cohort engine sub-batches
        per config group (:class:`~repro.runtime.mixed.MixedEngine`),
        bit-identical per rig to a cohort of its own.  The cohort seals
        at its first tick; every client attached before that (e.g. an
        attach storm racing the loop) lands in one shared engine.

        Parameters mirror :meth:`repro.runtime.Session.run` where they
        overlap (``snapshot_s`` / ``record_every_n`` cadence,
        ``numerics``); the fleet arguments mirror the
        :class:`~repro.runtime.Session` constructor.

        Raises
        ------
        ServiceError
            If the service was stopped (``reason="stopped"``).
        ConfigurationError
            For an empty profile, conflicting cadence spellings, or
            ``fleet=`` combined with ``n_monitors``/``seed``.
        """
        if self._stopped:
            raise ServiceError("service stopped", reason="stopped")
        mode = resolve_numerics(numerics)
        # Session refuses fleet= + n_monitors/seed with the precise error.
        session = Session(n_monitors, seed, fleet=fleet,
                          chunk_size=self._chunk)
        n_monitors = session.n_monitors
        seed = session.seed
        session.open()
        try:
            every = resolve_record_every_n(session._dt, snapshot_s,
                                           record_every_n)
            if every < 1:
                raise ConfigurationError("record_every_n must be >= 1")
            total_steps = int(round(profile.duration_s / session._dt))
            if total_steps < 1:
                raise ConfigurationError("profile shorter than one loop tick")

            self._client_seq += 1
            client_id = f"c{self._client_seq}"
            tracer = get_tracer()
            with tracer.span("service.attach", client=client_id,
                             n_monitors=n_monitors, seed=seed):
                context = tracer.current_context()
                trace_id = (context.trace_id if context is not None
                            else f"trace-{client_id}")
                session.calibrate()
                rigs = [handle.rig for handle in session.monitors]
        except BaseException:
            # Once registered, _finalize owns closing the session; until
            # then a validation/calibration failure must not leak it.
            session.close()
            raise

        client = ClientSession(self, client_id, trace_id, seed=int(seed),
                               n_monitors=int(n_monitors),
                               total_steps=total_steps,
                               record_every_n=every)
        stream = SnapshotStream(self._max_pending, on_space=self._wake.set)
        member = _Member(client, session, rigs, stream)
        client._member = member

        key = self._group_key(session, profile, every, mode)
        group = self._open_by_key.get(key)
        if group is None:
            self._group_seq += 1
            path = (None if self._checkpoint_dir is None else
                    self._checkpoint_dir / f"cohort-{self._group_seq}.ckpt")
            group = _Group(self._group_seq, key,
                           WindowedRun(None, profile, total_steps,
                                       record_every_n=every,
                                       checkpoint_path=path),
                           mode, self._chunk)
            self._groups[group.group_id] = group
            self._open_by_key[key] = group
        group.members.append(member)
        member.group = group
        self._members.add(member)

        self._counters["attaches"] += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("service.attaches").inc()
            registry.gauge("service.clients").set(len(self._members))
            registry.gauge("service.groups").set(len(self._groups))
        get_event_log().emit("service.attach", client=client_id,
                             trace=trace_id, n_monitors=n_monitors,
                             seed=int(seed), group=group.group_id)
        self._wake.set()
        return client

    def stats(self) -> dict:
        """Service-level snapshot: counters, cohorts and queue depths.

        Safe to call from a sampler thread (the live snapshot pipeline
        polls it): all shared containers are copied before iteration,
        so a concurrent attach/detach on the event loop cannot break
        the walk — the view is simply a moment-in-time sample.
        """
        groups = []
        for g in list(self._groups.values()):
            members = list(g.members)
            engine = g.run.engine
            groups.append({
                "group_id": g.group_id,
                "sealed": engine is not None,
                "members": len(members),
                "fleet_size": sum(m.n for m in members),
                "config_groups": (len(engine.groups)
                                  if engine is not None else None),
                "done_steps": g.run.done,
                "total_steps": g.run.total_steps,
                "queue_depth": max((m.stream.depth for m in members),
                                   default=0),
            })
        registry = get_registry()
        return {
            "running": self.running,
            "clients": len(self._members),
            "groups": groups,
            **dict(self._counters),
            "metrics": registry.snapshot() if registry.enabled else {},
        }

    def health(self) -> dict:
        """Liveness/saturation report for the ``/health`` endpoint.

        JSON-safe and thread-safe (copied views, like :meth:`stats`).
        ``status`` is ``"ok"`` while the tick loop is live and
        backpressure saturation — stalled loop passes over total passes
        — stays under 90%; a stopped loop reports ``"stopped"``.
        """
        stalls = self._counters["backpressure_stalls"]
        ticks = self._counters["ticks"]
        saturation = stalls / max(1, stalls + ticks)
        if self._stopped:
            status = "stopped"
        elif not self.running:
            status = "idle"
        elif saturation >= 0.9 and len(self._members) > 0:
            status = "degraded"
        else:
            status = "ok"
        worst = []
        if self._health_scores:
            for member in list(self._members):
                for rig, tracker in enumerate(list(member.health)):
                    worst.append({
                        "client": member.client.client_id,
                        "rig": rig,
                        "score": tracker.score(),
                        "status": tracker.status().name.lower(),
                    })
            worst.sort(key=lambda r: r["score"], reverse=True)
        since_tick = (None if self._last_tick_monotonic is None
                      else time.monotonic() - self._last_tick_monotonic)
        return {
            "status": status,
            "running": self.running,
            "clients": len(self._members),
            "groups": len(self._groups),
            "backpressure": {"stalls": stalls, "ticks": ticks,
                             "saturation": saturation},
            "since_last_tick_s": since_tick,
            "worst_rigs": worst[:5],
        }

    @property
    def pipeline(self):
        """The live :class:`~repro.observability.live.SnapshotPipeline`
        (None unless ``sample_every_s``/``http_port`` was configured)."""
        return self._pipeline

    @property
    def http_url(self) -> str | None:
        """Base URL of the live HTTP plane once started, else None."""
        return self._http.url if self._http is not None else None

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _group_key(session: Session, profile: Profile, every: int,
                   mode: str) -> tuple:
        """Cohort identity: everything that must match for one engine.

        Build configurations are deliberately *absent*: the cohort
        engine is a :class:`~repro.runtime.mixed.MixedEngine`, so
        clients with different builds coalesce into one mixed cohort.
        Only the shared clocks remain — profile, cadence, loop rate
        (``session._dt``) and numerics.
        """
        return (tuple(profile.segments), every, session._dt, mode)

    async def _detach(self, client: ClientSession) -> RunResult:
        """Remove ``client`` between ticks; finalize its partial result."""
        member = client._member
        if member is None or member.finalized:
            raise ServiceError(
                f"client {client.client_id} is not attached",
                reason="detached")
        group = member.group
        with get_tracer().span("service.detach", client=client.client_id,
                               group=group.group_id if group else -1):
            if group is not None:
                index = group.members.index(member)
                if group.run.engine is not None:
                    lo = sum(m.n for m in group.members[:index])
                    group.run.engine.drop(list(range(lo, lo + member.n)))
                group.members.pop(index)
                if not group.members:
                    self._discard_group(group)
            partial = self._stitch(member)
            self._finalize(member, result=partial)
        self._counters["detaches"] += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("service.detaches").inc()
            registry.gauge("service.clients").set(len(self._members))
            registry.gauge("service.groups").set(len(self._groups))
        get_event_log().emit("service.detach", client=client.client_id,
                             done_steps=group.run.done if group else 0)
        self._wake.set()
        return partial

    def _stitch(self, member: _Member) -> RunResult:
        """Concatenate a member's streamed windows into one result."""
        if not member.windows:
            return _empty_result(member.n)
        return RunResult.concat(member.windows, axis="time")

    def _finalize(self, member: _Member,
                  result: RunResult | None = None,
                  error: BaseException | None = None) -> None:
        """Resolve a member's future and stream; detach it everywhere."""
        if member.finalized:
            return
        member.finalized = True
        if member.group is not None:
            member.done = member.group.run.done
        self._members.discard(member)
        if not member.future.done():
            if error is not None:
                member.future.set_exception(error)
            else:
                member.future.set_result(result)
        member.stream.close(error)
        member.session.close()
        registry = get_registry()
        if registry.enabled:
            registry.gauge("service.clients").set(len(self._members))

    def _discard_group(self, group: _Group) -> None:
        # Evict any pool-resident shard state the cohort engine holds
        # (a no-op for serial groups).
        group.run.close()
        self._groups.pop(group.group_id, None)
        if self._open_by_key.get(group.key) is group:
            del self._open_by_key[group.key]
        # The cohort ended (completed, crashed or emptied): its
        # checkpoint no longer names recoverable work.
        group.run.finish()
        registry = get_registry()
        if registry.enabled:
            registry.gauge("service.groups").set(len(self._groups))
        # Retire the cohort's own gauge so a resident service's registry
        # cardinality stays bounded by *live* cohorts, not history.
        get_registry().discard(
            f"service.group.{group.group_id}.queue_depth")

    def _seal(self, group: _Group) -> None:
        """Build the cohort engine; no more members may join.

        The engine is a :class:`~repro.runtime.mixed.MixedEngine` over
        every member's rigs in attach order: a homogeneous cohort takes
        its single-group fast path (byte-identical to the plain
        ``BatchEngine`` it used to build), a mixed cohort sub-batches
        per config group.
        """
        if self._open_by_key.get(group.key) is group:
            del self._open_by_key[group.key]
        rigs = [rig for member in group.members for rig in member.rigs]
        group.run.engine = MixedEngine(rigs, chunk_size=group.chunk_size,
                                       numerics=group.numerics,
                                       workers=self._workers)

    def _fail_group(self, group: _Group, exc: BaseException) -> None:
        """Propagate an engine fault to every member; drop the cohort."""
        self._counters["crashed_groups"] += 1
        get_event_log().emit("service.crash", group=group.group_id,
                             error=type(exc).__name__)
        for member in list(group.members):
            self._finalize(member, error=exc)
        group.members.clear()
        self._discard_group(group)

    def _tick(self, group: _Group) -> None:
        """Advance one cohort by one bounded slice; fan out snapshots."""
        tick_start = time.perf_counter()
        tracer = get_tracer()
        run = group.run
        if run.engine is None:
            try:
                self._seal(group)
            except ReproError as exc:
                self._fail_group(group, exc)
                return
        budget = run.budget(self._tick_steps)
        with tracer.span("service.tick", group=group.group_id,
                         steps=budget, clients=len(group.members)):
            try:
                window = run.advance(budget)
            except ReproError as exc:
                self._fail_group(group, exc)
                return
        if self._health_scores and len(window):
            self._score_window(group, window)
        lo = 0
        for member in group.members:
            rows = _slice_rows(window, lo, lo + member.n)
            lo += member.n
            member.windows.append(rows)
            member.stream.push(Snapshot(
                seq=len(member.windows) - 1,
                window=rows,
                summary=rows.summary(),
                done_steps=run.done,
                total_steps=run.total_steps,
            ))
        self._counters["ticks"] += 1
        self._counters["snapshots"] += len(group.members)
        self._last_tick_monotonic = time.monotonic()
        registry = get_registry()
        if registry.enabled:
            registry.counter("service.ticks").inc()
            registry.counter("service.snapshots").inc(len(group.members))
            registry.counter("service.samples").inc(
                budget * sum(m.n for m in group.members))
            registry.histogram("service.tick.wall_s").observe(
                time.perf_counter() - tick_start)
            depth = max((m.stream.depth for m in group.members), default=0)
            registry.gauge(f"service.group.{group.group_id}.queue_depth").set(
                depth)
            registry.gauge("service.queue.depth").set(depth)
        if run.complete:
            self._counters["completed"] += len(group.members)
            for member in list(group.members):
                self._finalize(member, result=self._stitch(member))
            group.members.clear()
            self._discard_group(group)
        elif self._checkpoint_dir is not None:
            # Every member's streamed windows pair with the engine at
            # the same cut point, so a resume continues exactly where
            # the streamed data ends.
            run.checkpoint({
                "group_id": group.group_id,
                "members": [
                    {"client_id": m.client.client_id,
                     "seed": m.client.seed,
                     "n": m.n,
                     "windows": list(m.windows)}
                    for m in group.members
                ],
            })

    def _score_window(self, group: _Group, window: RunResult) -> None:
        """Feed one cohort window through every member's health trackers.

        Residuals are taken against the cohort-wide reference trace
        (per-tick median across all rigs in the window), which cancels
        the shared demand profile and isolates per-rig anomalies; see
        :mod:`repro.station.health`.
        """
        dt_s = group.key[2] * group.run.record_every_n
        ref_speed = fleet_reference(window, "measured_mps")
        ref_press = fleet_reference(window, "pressure_pa")
        ref_temp = fleet_reference(window, "temperature_k")
        worst = 0.0
        lo = 0
        for member in group.members:
            if len(member.health) != member.n:
                member.health = [RigHealthTracker()
                                 for _ in range(member.n)]
            for offset, tracker in enumerate(member.health):
                row = lo + offset
                score = tracker.update(
                    dt_s=dt_s,
                    measured_mps=window.measured_mps[row],
                    reference_mps=ref_speed,
                    pressure_pa=window.pressure_pa[row],
                    reference_pa=ref_press,
                    temperature_k=window.temperature_k[row],
                    reference_k=ref_temp,
                    bubble_coverage=window.bubble_coverage[row],
                )
                worst = max(worst, score)
            lo += member.n
        registry = get_registry()
        if registry.enabled:
            registry.gauge("service.health.worst").set(worst)

    async def _loop(self) -> None:
        """The tick loop: round-robin over ready cohorts, stall on none.

        Never awaits inside a tick, so attach/detach coroutines (same
        event loop) interleave only between ticks; yields after every
        tick so consumers drain while the next cohort advances.
        """
        while True:
            progressed = False
            for group in list(self._groups.values()):
                if group.group_id not in self._groups or not group.members:
                    continue
                if not group.ready():
                    self._counters["backpressure_stalls"] += 1
                    registry = get_registry()
                    if registry.enabled:
                        registry.counter("service.backpressure.stalls").inc()
                    continue
                try:
                    self._tick(group)
                except Exception as exc:
                    # _tick maps engine faults itself; anything escaping
                    # is a service-side bug.  It must still resolve the
                    # cohort's futures/streams — an exception out of the
                    # loop task would strand every attached client.
                    self._fail_group(group, exc)
                progressed = True
                await asyncio.sleep(0)
            if not progressed:
                self._wake.clear()
                await self._wake.wait()


@dataclass
class RecoveredCohort:
    """One orphaned cohort salvaged from a dead service's checkpoints.

    Produced by :func:`recover_cohorts`.  Holds the restored windowed
    run (live engine included) plus every member's already-streamed
    windows at the same cut point; :meth:`resume` finishes the run
    offline.

    Attributes
    ----------
    path:
        The checkpoint artifact this cohort was restored from.
    group_id:
        The dead service's cohort id.
    done / total_steps:
        Engine samples completed at the checkpoint, and the horizon.
    record_every_n:
        Recording decimation the cohort streamed at.
    clients:
        Member client ids, in attach order.
    """

    path: Path
    group_id: int
    done: int
    total_steps: int
    record_every_n: int
    clients: list[str]
    _members: list[dict]
    _run: WindowedRun

    def resume(self) -> dict[str, RunResult]:
        """Finish the cohort's run; per-client stitched results.

        Advances the restored engine from the checkpoint's cut point to
        the horizon, slices each member its own rows, and concatenates
        them onto the windows the dead service already streamed — the
        returned :class:`~repro.runtime.result.RunResult` per client id
        is bit-identical to what an uninterrupted service would have
        resolved from :meth:`ClientSession.result`.  On success the
        checkpoint artifact is deleted.
        """
        run = self._run
        windows = [list(m["windows"]) for m in self._members]
        if not run.complete:
            window = run.advance(run.remaining)
            lo = 0
            for m, acc in zip(self._members, windows):
                acc.append(_slice_rows(window, lo, lo + m["n"]))
                lo += m["n"]
        run.close()
        results = {
            m["client_id"]: (RunResult.concat(acc, axis="time") if acc
                             else _empty_result(m["n"]))
            for m, acc in zip(self._members, windows)
        }
        run.finish()
        return results


def recover_cohorts(checkpoint_dir) -> list[RecoveredCohort]:
    """List the cohorts a dead service left behind, oldest cohort first.

    Scans ``checkpoint_dir`` for ``cohort-*.ckpt`` artifacts written by
    a :class:`FleetService` run with ``checkpoint_dir=`` and restores
    each into a :class:`RecoveredCohort`.  Call
    :meth:`RecoveredCohort.resume` to finish a cohort's run and collect
    the per-client results the dead service never delivered.

    Returns an empty list when nothing was stranded (the service
    deletes checkpoints for cohorts that end normally).

    Raises
    ------
    CheckpointError
        ``reason="corrupt"``/``"version"``/``"kind"`` if an artifact in
        the directory is not a readable service cohort checkpoint.
    """
    root = Path(checkpoint_dir)
    cohorts = []
    for path in sorted(root.glob("cohort-*.ckpt")):
        # Cohorts carry no fingerprint: an orphan is adopted as whatever
        # run the dead service was executing.
        run, state = WindowedRun.restore(path, expect_kind="mixed")
        cohorts.append(RecoveredCohort(
            path=path,
            group_id=int(state["group_id"]),
            done=run.done,
            total_steps=run.total_steps,
            record_every_n=run.record_every_n,
            clients=[m["client_id"] for m in state["members"]],
            _members=state["members"],
            _run=run,
        ))
    cohorts.sort(key=lambda cohort: cohort.group_id)
    return cohorts
