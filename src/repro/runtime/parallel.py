"""Process-parallel fleet execution: whole config groups as jobs.

The batch engine (:mod:`repro.runtime.batch`) vectorizes within one
process; this module runs a fleet's config groups **side by side** in
worker processes while keeping the result bit-identical to the serial
path:

- The unit of parallelism is the config group
  (:func:`repro.runtime.mixed.fleet_groups`, the one rule that decides
  which rigs share a :class:`~repro.runtime.batch.BatchEngine`).  Each
  group is one *job*: its whole ``BatchEngine``, pickled.  Rows are
  never split, so a job computes exactly what the serial engine
  computes for that group, and a fleet with one group has one job.
- Per-monitor randomness lives entirely inside each rig (its seeds were
  spawned with ``numpy.random.SeedSequence.spawn`` at build time — see
  :meth:`repro.runtime.FleetSpec.monitor_seeds`), and the shared line
  plant is deterministic given the profile, so moving a group's engine
  to another process moves its noise streams with it, untouched.
- Between windows each job's engine lives in the parent as a pickled
  blob.  Every window ships each blob to its own single-process
  ``concurrent.futures.ProcessPoolExecutor`` worker, at most
  ``workers`` at once, which advances it and sends back the group's
  trace block together with the re-pickled engine.
- Blocks are interleaved back into caller order by the group positions
  (``MixedEngine._merge``); worker scheduling order cannot reorder
  rows.

:class:`MixedEngine(rigs, workers=W) <repro.runtime.mixed.MixedEngine>`
turns its groups into jobs when ``W > 1`` and the fleet has at least two
groups; otherwise it advances every group in-process, with no fork and
no blob.  :class:`ShardedEngine` is that engine with a required worker
count and the retry/watchdog knobs.  The parity contract is *exact*:
for any worker count and any worker interleaving, the result has the
same bits as the serial run (``tests/test_parallel_parity.py``).

Failure semantics: a worker crash, an unpicklable payload or a hung
worker triggers a bounded re-submission of just that job on a fresh
worker (``max_retries`` times), then an in-process advance of the same
blob, so a window degrades to the serial engine rather than failing.
Every worker process is reaped before the call returns; none outlives a
window.  Deterministic simulation errors
(:class:`~repro.errors.ReproError`, e.g. a membrane burst) are
re-raised immediately — retrying cannot change physics.
``shard.retries`` / ``shard.fallbacks`` counters and per-job wall-time
histograms flow through the opt-in :mod:`repro.observability` registry.

Telemetry does not die with the workers: when any observability sink is
enabled in the parent, each worker runs under fresh sinks bracketed by
:func:`repro.observability.remote.install_worker_telemetry` /
``harvest_worker_telemetry``, wraps its engine run in a
``shard.worker`` span nested (via the propagated
:class:`~repro.observability.tracer.TraceContext`) under the parent's
``shard.run`` span (one per window), and ships a
:class:`~repro.observability.remote.TelemetryHarvest` back with its
trace block.  The parent merges harvests in job order, so worker
``runtime.*``/``kernel.*``/``profile.*`` metrics, spans and events land
in the parent registry exactly once — only *successful* attempts
harvest, so retries cannot double-count, and fallback jobs already
run in-process under the parent sinks directly.

Worker faults are injected through the one ``REPRO_FAULT`` hook
(:mod:`repro.runtime.faults`): ``crash:<job>``, ``hang:<job>``,
``raise:<job>`` or ``crash-once:<job>:<marker-dir>`` make that job's
worker die, hang, raise, or die exactly once; ``<job>`` is the group's
index in :func:`~repro.runtime.mixed.fleet_groups` order.

Because the complete run state lives in the parent between windows,
any slicing of a run into windows is bit-identical to the
uninterrupted run — and the whole engine (blobs included) is itself
picklable, which is what :func:`repro.runtime.checkpoint.save_checkpoint`
relies on.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from repro.errors import ConfigurationError, ReproError
from repro.observability import (get_event_log, get_profiler, get_registry,
                                 get_tracer)
from repro.observability.remote import (TelemetryHarvest, TelemetryRequest,
                                        harvest_worker_telemetry,
                                        install_worker_telemetry,
                                        merge_harvest)
from repro.runtime.batch import BatchEngine
from repro.runtime.faults import shard_site
from repro.runtime.mixed import MixedEngine
from repro.runtime.result import RunResult
from repro.station.profiles import Profile
from repro.station.rig import TestRig

__all__ = ["ShardedEngine"]


def _dumps(engine: BatchEngine) -> bytes:
    return pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)


class _Job:
    """One config group's :class:`BatchEngine`, pickled between windows.

    It stands in for the group's engine inside a
    :class:`~repro.runtime.mixed.MixedEngine` whose groups run as jobs.
    ``rigs`` are the caller's rigs of the group: the live state advances
    inside the blob, so the parent only mirrors their scheduler
    accounting.  Pickles leave them out, because a restored engine has
    no caller.
    """

    def __init__(self, engine: BatchEngine, rigs: list[TestRig]) -> None:
        self.blob = _dumps(engine)
        self.rigs = list(rigs)

    def drop(self, local: list[int]) -> None:
        """Drop group rows inside the blob (survivor bits untouched)."""
        engine = pickle.loads(self.blob)
        engine.drop(local)
        self.blob = _dumps(engine)
        gone = set(local)
        self.rigs = [r for k, r in enumerate(self.rigs) if k not in gone]

    def __getstate__(self) -> dict:
        return {"blob": self.blob, "rigs": []}


def _advance_job(job_index: int, blob: bytes, profile: Profile,
                 steps: int, record_every_n: int,
                 telemetry: TelemetryRequest | None = None,
                 ) -> tuple[tuple[RunResult, bytes],
                            TelemetryHarvest | None]:
    """Worker entrypoint: advance one pickled group engine by a window.

    The blob is the group's live :class:`BatchEngine` (rigs, RNG
    streams, decimation phase and all) as pickled by the parent after
    the previous window; it is advanced ``steps`` samples and shipped
    home re-pickled together with the window's trace block.  Pickle
    round-trips the engine state exactly, so windowing introduces no
    drift.

    With a ``telemetry`` request the window runs under fresh
    observability sinks (the fork start method would otherwise leak the
    parent's registry contents into the harvest), inside a
    ``shard.worker`` span nested under the parent's propagated trace
    context, and the collected :class:`TelemetryHarvest` rides home as
    the second tuple element.  Telemetry only ships on success: a
    crashed, hung or raising attempt returns nothing, so retried jobs
    cannot double-count.
    """
    shard_site(job_index)
    previous = (install_worker_telemetry(telemetry)
                if telemetry is not None else None)
    harvest = None
    try:
        engine = pickle.loads(blob)
        with get_tracer().span("shard.worker", job=job_index,
                               steps=steps):
            block = engine.advance(profile, steps,
                                   record_every_n=record_every_n)
        new_blob = _dumps(engine)
    finally:
        if previous is not None:
            harvest = harvest_worker_telemetry(previous)
    return (block, new_blob), harvest


def _advance_blob(blob: bytes, profile: Profile, steps: int,
                  record_every_n: int) -> tuple[RunResult, bytes]:
    """In-process fallback for one window: :func:`_advance_job` minus
    the worker (fault site and telemetry bracket)."""
    engine = pickle.loads(blob)
    block = engine.advance(profile, steps, record_every_n=record_every_n)
    return block, _dumps(engine)


def _terminate(executor: ProcessPoolExecutor) -> None:
    """Tear an executor down hard (its worker may be hung or dead)."""
    processes = list(getattr(executor, "_processes", {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        except Exception:
            pass
    executor.shutdown(wait=False, cancel_futures=True)


def _telemetry_request() -> TelemetryRequest | None:
    """Worker telemetry request when any parent sink is on (or None).

    Each sink re-gates itself at merge time; the trace context captured
    here is the live ``shard.run`` span, so worker spans nest under it.
    """
    tracer = get_tracer()
    profiler = get_profiler()
    collecting = (get_registry().enabled or tracer.enabled
                  or get_event_log().enabled or profiler.enabled)
    if not collecting:
        return None
    return TelemetryRequest(trace_context=tracer.current_context(),
                            profile=profiler.enabled)


def advance_jobs(jobs: list[_Job], profile: Profile, steps: int,
                 record_every_n: int, *, workers: int, max_retries: int,
                 timeout_s: float | None) -> list[RunResult]:
    """Advance every job one window; the group blocks, in job order.

    Opens one ``shard.run`` span around :func:`_dispatch`.  Each job's
    blob is replaced only once every job's window succeeded, so an
    error leaves the engine at the window's start; then the caller rigs
    get the serial engine's scheduler accounting.

    Raises
    ------
    ConfigurationError
        On non-positive ``steps``/``record_every_n``.
    SensorFault
        On membrane burst or housing overpressure, exactly as the
        serial engine would.
    """
    if steps < 1:
        raise ConfigurationError("advance needs at least one step")
    if record_every_n < 1:
        raise ConfigurationError("record_every_n must be >= 1")
    registry = get_registry()
    if registry.enabled:
        registry.gauge("shard.workers").set(workers)
        registry.counter("shard.runs").inc()
    window = (profile, steps, record_every_n)
    with get_tracer().span("shard.run", jobs=len(jobs), workers=workers,
                           steps=steps):
        payloads = _dispatch([job.blob for job in jobs], window,
                             workers, max_retries, timeout_s)
    for job, (_, blob) in zip(jobs, payloads):
        job.blob = blob
        for rig in job.rigs:
            rig.monitor.platform.scheduler.bulk_tick(steps)
    return [block for block, _ in payloads]


def _dispatch(blobs: list[bytes], window: tuple, workers: int,
              max_retries: int, timeout_s: float | None,
              ) -> list[tuple[RunResult, bytes]]:
    """The one submit/collect/retry/fallback loop.

    Job ``i`` runs ``_advance_job(i, blob_i, *window, telemetry=...)``
    on its own single-process executor, at most ``workers`` of them
    alive at once; a crashed or hung worker cannot contaminate its
    siblings' futures.  A job starts as soon as a worker slot frees,
    and each attempt's ``timeout_s`` budget runs from its own
    submission.  An infrastructure failure (timeout, dead worker,
    pickling error, injected fault) kills that worker and re-submits
    the job up to ``max_retries`` times, then :func:`_advance_blob` runs
    it in-process under the parent sinks.  A deterministic
    :class:`~repro.errors.ReproError` re-raises at once — retrying
    cannot change physics.  Every worker is reaped before this returns
    or raises.

    Returns the per-job ``(block, new_blob)`` payloads in job order.
    """
    registry = get_registry()
    observing = registry.enabled
    telemetry = _telemetry_request()
    if observing:
        worker_hist = registry.histogram(
            "shard.worker_s", "per-job worker wall time")

    pending = deque(range(len(blobs)))
    running: dict = {}  # future -> (job, executor, start time)
    attempts = [0] * len(blobs)
    payloads: dict[int, tuple[RunResult, bytes]] = {}
    harvests: dict[int, TelemetryHarvest] = {}
    fallback: list[int] = []

    def failed(i: int, executor: ProcessPoolExecutor) -> None:
        _terminate(executor)
        attempts[i] += 1
        if attempts[i] > max_retries:
            fallback.append(i)
            return
        if observing:
            registry.counter(
                "shard.retries",
                "job re-submissions after worker failure").inc()
        pending.appendleft(i)

    try:
        while pending or running:
            while pending and len(running) < workers:
                i = pending.popleft()
                executor = ProcessPoolExecutor(max_workers=1)
                future = executor.submit(_advance_job, i, blobs[i], *window,
                                         telemetry=telemetry)
                running[future] = (i, executor, time.perf_counter())
            timeout = None
            if timeout_s is not None:
                first = min(start for _, _, start in running.values())
                timeout = max(0.0, first + timeout_s - time.perf_counter())
            done, _ = wait(running, timeout=timeout,
                           return_when=FIRST_COMPLETED)
            for future in done:
                i, executor, start = running.pop(future)
                try:
                    payloads[i], harvest = future.result()
                except ReproError:
                    _terminate(executor)
                    raise
                except Exception:
                    failed(i, executor)
                    continue
                if harvest is not None:
                    harvests[i] = harvest
                if observing:
                    worker_hist.observe(time.perf_counter() - start)
                # The worker already returned; reap it promptly so no
                # process outlives the call.
                executor.shutdown(wait=True)
            if timeout_s is not None:
                now = time.perf_counter()
                for future, (i, executor, start) in list(running.items()):
                    if now - start >= timeout_s:
                        del running[future]
                        failed(i, executor)
    finally:
        for _, executor, _ in running.values():
            _terminate(executor)

    for i in fallback:
        if observing:
            registry.counter(
                "shard.fallbacks",
                "jobs degraded to the serial in-process engine").inc()
        payloads[i] = _advance_blob(blobs[i], *window)
    # Fold worker telemetry home in job order — completion order must
    # not leak into the merged registry (determinism).  Fallback jobs
    # have no harvest: they already ran in-process under the parent
    # sinks.
    for i in sorted(harvests):
        merge_harvest(harvests[i], registry=registry, tracer=get_tracer(),
                      event_log=get_event_log(), profiler=get_profiler())
    return [payloads[i] for i in range(len(blobs))]


class ShardedEngine(MixedEngine):
    """Run a fleet's config groups as jobs across worker processes.

    A :class:`~repro.runtime.mixed.MixedEngine` with a required worker
    count and the retry/watchdog knobs.  Each config group is one job;
    at most ``workers`` jobs advance at once, each in its own worker
    process, and their blocks merge back into caller order.  A fleet
    with one config group is one job and runs in-process, with no fork.

    Parameters
    ----------
    rigs:
        Any rig list the mixed engine accepts (groups must share one
        loop rate and line clock).  Treat them as spent once the engine
        has run, exactly like rigs handed to a :class:`BatchEngine`.
    workers:
        Worker process count, a positive integer.  The effective count
        is ``min(workers, number of config groups)``.
    max_retries:
        Re-submissions allowed per job after an infrastructure failure
        (crash / hang / pickling error) before that job falls back to
        the serial in-process engine — per window.
    timeout_s:
        Per-attempt wall-clock budget, measured from that attempt's
        submission; ``None`` disables the watchdog.  A timed-out worker
        is killed, not abandoned.
    numerics:
        Kernel numerics mode for every group engine (``"exact"``, the
        default, or ``"fast"``).  Worker-count invariance holds per
        mode: every worker runs the same kernels the serial engine
        would.

    Raises
    ------
    ConfigurationError
        From the batch engine's validation of each group, on groups
        that do not share a time base (``reason="heterogeneous"``), or
        on invalid knobs (``reason="numerics"`` for an unknown numerics
        mode).
    """

    def __init__(self, rigs: list[TestRig], workers: int,
                 max_retries: int = 1, timeout_s: float | None = None,
                 numerics: str = "exact") -> None:
        if int(workers) < 1:
            raise ConfigurationError("workers must be a positive integer")
        if max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if timeout_s is not None and timeout_s <= 0.0:
            raise ConfigurationError("timeout_s must be positive")
        self._max_retries = int(max_retries)
        self._timeout_s = timeout_s
        self._closed = False
        super().__init__(rigs, numerics=numerics, workers=int(workers))

    @property
    def workers(self) -> int:
        """Worker processes a window may use at once:
        ``min(workers, number of config groups)``; 1 means in-process."""
        return self._workers

    def run(self, profile: Profile, record_every_n: int = 20) -> RunResult:
        """Execute a profile over the fleet; merged traces out.

        Exactly ``advance(profile, steps)`` for the profile's full step
        count: one window from the current :attr:`offset`.
        Bit-identical to the serial engine for any worker count and any
        worker completion order.

        Raises
        ------
        ConfigurationError
            On an empty profile, non-positive decimation, a closed
            engine, or if every rig has been :meth:`drop`-ped.
        SensorFault
            On membrane burst or housing overpressure, exactly as the
            serial engine would.
        """
        self._require_open()
        return super().run(profile, record_every_n)

    def advance(self, profile: Profile, steps: int,
                record_every_n: int = 20) -> RunResult:
        """Advance ``steps`` samples; one window's merged traces out.

        Consecutive windows concatenated time-wise are bit-identical to
        one uninterrupted run, for any window boundaries and any worker
        scheduling.  With more than one worker, every window ships each
        group's blob to a fresh single-process worker and stores the
        advanced blob it sends back, so between windows the complete
        run state lives in the parent — ready to be checkpointed by
        pickling this engine.  A worker that dies, hangs or fails to
        pickle is retried on a fresh worker (``shard.retries``), then
        that job's window degrades to an in-process advance of the same
        blob (``shard.fallbacks``).

        Raises
        ------
        ConfigurationError
            On non-positive ``steps``/``record_every_n``, a closed
            engine, or if every rig has been :meth:`drop`-ped.
        SensorFault
            On membrane burst or housing overpressure, exactly as the
            serial engine would.
        """
        self._require_open()
        return super().advance(profile, steps, record_every_n)

    def drop(self, indices) -> None:
        """:meth:`MixedEngine.drop
        <repro.runtime.mixed.MixedEngine.drop>` on an open engine.

        Raises
        ------
        ConfigurationError
            On out-of-range or duplicate indices, or on a closed engine.
        """
        self._require_open()
        super().drop(indices)

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "this engine is closed; build a fresh ShardedEngine")

    def close(self) -> None:
        """End the engine's life (idempotent); it refuses further use.

        No worker outlives a call, so there is nothing to release.
        """
        self._closed = True
