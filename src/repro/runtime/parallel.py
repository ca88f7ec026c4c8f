"""Process-parallel sharded fleet execution with deterministic parity.

The batch engine (:mod:`repro.runtime.batch`) vectorizes within one
process; this module shards a fleet **across** worker processes while
keeping the result bit-identical to the serial path:

- The fleet is partitioned into contiguous shards
  (:func:`partition_monitors`).  Per-monitor randomness lives entirely
  inside each rig (its seeds were spawned with
  ``numpy.random.SeedSequence.spawn`` at build time — see
  :func:`spawn_monitor_seeds` and ``Session.open``), so moving a rig to
  another process moves its noise streams with it, untouched.
- The shared line plant is deterministic given the profile (no fleet
  RNG), and the batch engine validates that every rig starts from the
  same bulk state, so each shard re-derives the identical line
  trajectory independently.
- Each shard runs in its own single-process
  ``concurrent.futures.ProcessPoolExecutor`` worker, which builds a
  :class:`~repro.runtime.batch.BatchEngine` over its pickled rigs and
  sends back the shard's ``(N_shard, M)`` trace block.
- Blocks are merged in shard order with :meth:`RunResult.concat`;
  worker scheduling order cannot reorder rows.

The parity contract is therefore *exact*: for any shard count and any
worker interleaving, ``ShardedEngine.run`` returns the same bits as
``BatchEngine.run`` on the whole fleet (``tests/test_parallel_parity.py``
asserts this for shard counts 1, 2, 3 and N).

Failure semantics: a worker crash, an unpicklable payload or a hung
worker triggers a bounded re-submission of just that shard on a fresh
worker (``max_retries`` times), then a serial in-process fallback, so a
sharded run degrades to the serial engine rather than failing.
Deterministic simulation errors (:class:`~repro.errors.ReproError`,
e.g. a membrane burst) are re-raised immediately — retrying cannot
change physics.  ``shard.retries`` / ``shard.fallbacks`` counters and
per-shard wall-time histograms flow through the opt-in
:mod:`repro.observability` registry.

Telemetry does not die with the workers: when any observability sink is
enabled in the parent, each worker runs under fresh sinks bracketed by
:func:`repro.observability.remote.install_worker_telemetry` /
``harvest_worker_telemetry``, wraps its engine run in a
``shard.worker`` span nested (via the propagated
:class:`~repro.observability.tracer.TraceContext`) under the parent's
``shard.run`` span, and ships a
:class:`~repro.observability.remote.TelemetryHarvest` back with its
trace block.  The parent merges harvests in shard order, so worker
``runtime.*``/``kernel.*``/``profile.*`` metrics, spans and events land
in the parent registry exactly once — only *successful* attempts
harvest, so retries cannot double-count, and fallback shards already
run in-process under the parent sinks directly.

Worker faults are injected through the one ``REPRO_FAULT`` hook
(:mod:`repro.runtime.faults`): ``crash:<shard>``, ``hang:<shard>``,
``raise:<shard>`` or ``crash-once:<shard>:<marker-dir>`` make that
shard's worker die, hang, raise, or die exactly once.

Windowed execution (:meth:`ShardedEngine.advance`) keeps the same
parity contract across checkpoint cut points: each shard's
:class:`BatchEngine` lives between windows as a pickled blob in the
parent, rides to a worker for each window and comes home re-pickled
with its advanced state, so any slicing of a run into windows is
bit-identical to the uninterrupted run — and the whole engine (blobs
included) is itself picklable, which is what
:func:`repro.runtime.checkpoint.save_checkpoint` relies on.

Everything above describes the default ``backend="spawn"``.  With
``backend="shm"`` the same partition, seeds and merge order ride the
zero-copy runtime of :mod:`repro.runtime.shm` instead: shard engines
are loaded **once** into a persistent worker pool and advanced in
place by small commands, trace blocks land in parent-owned shared
memory, and the merge is :meth:`RunResult.from_shared
<repro.runtime.result.RunResult.from_shared>` pointer assembly.  The
parity contract is identical — same bits for any worker count — but
the failure semantics differ for *windowed* runs: a pool worker that
dies mid-sequence takes its shard's live state with it, so
:meth:`advance` raises :class:`~repro.runtime.shm.PoolWorkerError`
instead of silently degrading (durable runs recover through their last
checkpoint; one-shot :meth:`run` still falls back to the serial
engine, whose state lives in the parent).  Checkpointing an shm engine
dumps the pool-resident shard engines back into pickled blobs
(:meth:`__getstate__`), so a checkpoint holds owned bytes, never pool
references; resume re-loads the blobs into whatever pool exists then.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.observability import (get_event_log, get_profiler, get_registry,
                                 get_tracer)
from repro.observability.remote import (TelemetryHarvest, TelemetryRequest,
                                        harvest_worker_telemetry,
                                        install_worker_telemetry,
                                        merge_harvest)
from repro.runtime.batch import BatchEngine
from repro.runtime.faults import shard_site
from repro.runtime.kernels import resolve_numerics
from repro.runtime.result import RunResult
from repro.runtime.shm import (PoolWorkerError, SharedBlock, empty_result,
                               existing_pool, get_pool, next_engine_id,
                               recorded_ticks, resolve_backend,
                               write_block_rows)
from repro.station.profiles import Profile
from repro.station.rig import TestRig

__all__ = ["ShardedEngine", "partition_monitors", "spawn_monitor_seeds",
           "resolve_workers"]


def resolve_workers(workers: int | None, n_monitors: int) -> int:
    """Resolve a ``workers=`` knob to an effective worker count.

    ``None`` means "use the machine": ``os.cpu_count()``.  The result is
    always clamped to the fleet size — a shard needs at least one rig.

    Raises
    ------
    ConfigurationError
        If ``workers`` is given and not a positive integer.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise ConfigurationError("workers must be a positive integer")
    return min(workers, int(n_monitors))


def partition_monitors(n_monitors: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous balanced partition of ``range(n_monitors)``.

    Returns ``[(start, stop), ...]`` half-open slices, one per shard, in
    fleet order.  Sizes differ by at most one (larger shards first), the
    slices are disjoint and cover every index exactly once, and the
    partition depends only on ``(n_monitors, n_shards)`` — never on
    scheduling — so the merged result layout is deterministic.

    Raises
    ------
    ConfigurationError
        On a non-positive fleet size or shard count, or more shards
        than monitors.
    """
    if n_monitors < 1:
        raise ConfigurationError("need at least one monitor to partition")
    if not 1 <= n_shards <= n_monitors:
        raise ConfigurationError(
            f"shard count must be in 1..{n_monitors}, got {n_shards}")
    base, extra = divmod(n_monitors, n_shards)
    bounds = []
    start = 0
    for i in range(n_shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def spawn_monitor_seeds(seed: int, n_monitors: int) -> list[int]:
    """Per-monitor seeds spawned from one session seed.

    The same ``SeedSequence.spawn`` derivation ``Session.open`` uses:
    child streams are statistically independent, and the list depends
    only on ``(seed, n_monitors)`` — *not* on how the fleet is later
    sharded — which is what makes shard-count-invariant runs possible.
    """
    children = np.random.SeedSequence(int(seed)).spawn(int(n_monitors))
    return [int(child.generate_state(1)[0]) for child in children]


def _run_shard(shard_index: int, rigs: list[TestRig], profile: Profile,
               record_every_n: int, chunk_size: int,
               numerics: str = "exact",
               telemetry: TelemetryRequest | None = None,
               ) -> tuple[int, RunResult, TelemetryHarvest | None]:
    """Worker entrypoint: advance one shard and return its trace block.

    Runs in a worker process on *pickled copies* of the shard's rigs,
    builds a fresh :class:`BatchEngine` over them (in the parent's
    numerics mode), and returns the ``(N_shard, M)`` block tagged with
    the shard index so the parent can merge blocks in fleet order
    regardless of completion order.

    With a ``telemetry`` request the run executes under fresh
    observability sinks (the fork start method would otherwise leak the
    parent's registry contents into the harvest), inside a
    ``shard.worker`` span nested under the parent's propagated trace
    context, and the collected :class:`TelemetryHarvest` rides home as
    the third tuple element.  Telemetry only ships on success: a
    crashed, hung or raising attempt returns nothing, so retried shards
    cannot double-count.
    """
    shard_site(shard_index)
    previous = (install_worker_telemetry(telemetry)
                if telemetry is not None else None)
    harvest = None
    try:
        engine = BatchEngine(rigs, chunk_size=chunk_size, numerics=numerics)
        with get_tracer().span("shard.worker", shard=shard_index,
                               n_monitors=len(rigs)):
            block = engine.run(profile, record_every_n=record_every_n)
    finally:
        if previous is not None:
            harvest = harvest_worker_telemetry(previous)
    return shard_index, block, harvest


def _advance_shard(shard_index: int, blob: bytes, profile: Profile,
                   steps: int, record_every_n: int,
                   telemetry: TelemetryRequest | None = None,
                   ) -> tuple[int, RunResult, bytes, TelemetryHarvest | None]:
    """Worker entrypoint: advance one pickled shard engine by a window.

    The blob is the shard's live :class:`BatchEngine` (rigs, RNG
    streams, decimation phase and all) as pickled by the parent after
    the previous window; it is advanced ``steps`` samples and shipped
    home re-pickled together with the window's trace block, tagged with
    the shard index for in-order merging.  Pickle round-trips the
    engine state exactly, so windowing introduces no drift.

    Telemetry handling mirrors :func:`_run_shard`: with a request the
    window runs under fresh worker sinks inside a ``shard.worker``
    span, and the harvest only ships on success.
    """
    shard_site(shard_index)
    previous = (install_worker_telemetry(telemetry)
                if telemetry is not None else None)
    harvest = None
    try:
        engine = pickle.loads(blob)
        with get_tracer().span("shard.worker", shard=shard_index,
                               steps=steps):
            block = engine.advance(profile, steps,
                                   record_every_n=record_every_n)
        new_blob = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        if previous is not None:
            harvest = harvest_worker_telemetry(previous)
    return shard_index, block, new_blob, harvest


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


class ShardedEngine:
    """Run a homogeneous fleet sharded across worker processes.

    Parameters
    ----------
    rigs:
        Structurally identical test rigs (the :class:`BatchEngine`
        homogeneity rules apply; they are validated up front in the
        parent).  Treat them as spent after :meth:`run`, exactly like
        rigs handed to a :class:`BatchEngine`.
    workers:
        Worker process count; ``None`` uses ``os.cpu_count()``.  The
        effective shard count is ``min(workers, len(rigs))``; a resolved
        count of 1 runs serially in-process (no executor at all).
    chunk_size:
        Per-worker batch-engine noise pre-draw block length.
    max_retries:
        Re-submissions allowed per shard after an infrastructure
        failure (crash / hang / pickling error) before that shard falls
        back to the serial in-process engine.
    timeout_s:
        Per-shard wall-clock budget measured from submission; ``None``
        disables the watchdog.  A timed-out worker is killed, not
        abandoned.
    numerics:
        Kernel numerics mode for every shard engine (``"exact"``, the
        default, or ``"fast"``); a :class:`~repro.runtime.kernels.Numerics`
        policy is accepted too.  Shard-count invariance holds per mode:
        every worker runs the same kernels the serial engine would.
    backend:
        ``"spawn"`` (the default) runs each shard on per-run
        single-worker executors; ``"shm"`` runs shards on the
        persistent zero-copy pool of :mod:`repro.runtime.shm` (see the
        module docstring for how the failure semantics differ).  Both
        are bit-identical to serial for any worker count.

    Raises
    ------
    ConfigurationError
        From the fleet homogeneity validation, or on invalid knobs
        (``reason="numerics"`` for an unknown numerics mode,
        ``reason="backend"`` for an unknown backend).
    """

    def __init__(self, rigs: list[TestRig], workers: int | None = None,
                 chunk_size: int = 1024, max_retries: int = 1,
                 timeout_s: float | None = None,
                 numerics: str = "exact", backend: str = "spawn") -> None:
        if max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if timeout_s is not None and timeout_s <= 0.0:
            raise ConfigurationError("timeout_s must be positive")
        self._rigs = list(rigs)
        self._numerics = resolve_numerics(numerics)
        self._backend = resolve_backend(backend)
        # Validate homogeneity (and every BatchEngine precondition) in
        # the parent, before any process is spawned: construction only
        # reads rig state, it does not consume the rigs.
        BatchEngine(self._rigs, chunk_size=chunk_size,
                    numerics=self._numerics)
        self._chunk = int(chunk_size)
        self._workers = resolve_workers(workers, len(self._rigs))
        self._max_retries = int(max_retries)
        self._timeout_s = timeout_s
        self._offset = 0
        self._ran = False
        self._closed = False
        self._bounds: list[tuple[int, int]] | None = None
        self._blobs: list[bytes] | None = None
        # shm-backend state: pool engine ids (worker i holds engine
        # _eids[i]), live shard sizes (drop-aware), and blobs restored
        # from a checkpoint awaiting re-load into the pool.
        self._eids: list[int] | None = None
        self._sizes: list[int] | None = None
        self._pending_blobs: list[bytes] | None = None

    @property
    def workers(self) -> int:
        """Resolved worker/shard count (``min(workers, len(rigs))``)."""
        return self._workers

    @property
    def offset(self) -> int:
        """Samples already advanced (the absolute step of the next tick).

        Zero on a fresh engine; grows with every :meth:`advance`
        window.  The PR 6 contract: a run sliced into ``advance``
        windows at any offsets is bit-identical to one uninterrupted
        :meth:`run` — this property marks the cut point a checkpoint
        captures.
        """
        return self._offset

    @property
    def numerics(self) -> str:
        """The resolved numerics mode shared by every shard engine."""
        return self._numerics

    @property
    def backend(self) -> str:
        """The resolved parallel backend (``"spawn"`` or ``"shm"``)."""
        return self._backend

    def run(self, profile: Profile, record_every_n: int = 20) -> RunResult:
        """Execute a profile over the sharded fleet; merged traces out.

        Bit-identical to ``BatchEngine(rigs).run(profile, ...)`` for any
        shard count and any worker completion order.  Worker failures
        degrade through retry to a serial in-process fallback; the run
        only raises for deterministic simulation errors (or if the
        serial fallback itself fails).

        Raises
        ------
        ConfigurationError
            On an empty profile or non-positive decimation.
        SensorFault
            On membrane burst or housing overpressure, exactly as the
            serial engine would.
        """
        if record_every_n < 1:
            raise ConfigurationError("record_every_n must be >= 1")
        self._require_open()
        if self._offset:
            raise ConfigurationError(
                "this engine was advanced in windows; continue with "
                "advance() instead of run()")
        steps = int(round(profile.duration_s /
                          self._rigs[0].monitor.platform.dt_s))
        if steps < 1:
            raise ConfigurationError("profile shorter than one loop tick")
        self._ran = True
        if self._workers == 1:
            # One shard: the serial engine *is* the sharded run.
            return BatchEngine(self._rigs, chunk_size=self._chunk,
                               numerics=self._numerics).run(
                profile, record_every_n=record_every_n)
        if self._backend == "shm":
            with get_tracer().span("shm.run", n_monitors=len(self._rigs),
                                   workers=self._workers):
                result, fell_back = self._run_shm(profile, record_every_n,
                                                  steps)
        else:
            with get_tracer().span("shard.run", n_monitors=len(self._rigs),
                                   workers=self._workers):
                result, fell_back = self._run_sharded(profile,
                                                      record_every_n)
        # Mirror the serial engine's scheduler accounting on the parent
        # rigs (worker-side copies advanced their own, then died).
        # Fallback shards already ran in-process on the parent rigs.
        ticked_serially = {id(rig) for start, stop in fell_back
                           for rig in self._rigs[start:stop]}
        for rig in self._rigs:
            if id(rig) not in ticked_serially:
                rig.monitor.platform.scheduler.bulk_tick(steps)
        return result

    def advance(self, profile: Profile, steps: int,
                record_every_n: int = 20) -> RunResult:
        """Advance ``steps`` samples across the sharded fleet; one
        window's merged traces out.

        The windowed counterpart of :meth:`run` and the sharded
        implementation of the PR 6 ``advance/offset`` contract:
        consecutive windows concatenated time-wise are bit-identical to
        one uninterrupted run, for any window boundaries and any worker
        scheduling.  On the first call each shard's rigs are folded
        into a pickled :class:`BatchEngine` blob; every window ships
        each blob to a fresh single-process worker and stores the
        advanced blob it sends back, so between windows the complete
        run state lives in the parent — ready to be checkpointed by
        pickling this engine.

        A worker that dies, hangs or fails to pickle degrades that
        shard's window to an in-process advance of the same blob
        (``shard.fallbacks`` counts these); deterministic simulation
        errors re-raise immediately, exactly as in :meth:`run`.

        Raises
        ------
        ConfigurationError
            On non-positive ``steps``/``record_every_n``, or if
            :meth:`run` already consumed the fleet.
        SensorFault
            On membrane burst or housing overpressure, exactly as the
            serial engine would.
        """
        if steps < 1:
            raise ConfigurationError("advance needs at least one step")
        if record_every_n < 1:
            raise ConfigurationError("record_every_n must be >= 1")
        self._require_open()
        if self._ran:
            raise ConfigurationError(
                "this engine's fleet was consumed by run(); build a "
                "fresh ShardedEngine to advance in windows")
        if not self._rigs:
            raise ConfigurationError("every rig was dropped; nothing to "
                                     "advance")
        if self._backend == "shm":
            with get_tracer().span("shm.advance",
                                   n_monitors=len(self._rigs),
                                   workers=self._workers, steps=steps):
                window = self._advance_shm(profile, steps, record_every_n)
            for rig in self._rigs:
                rig.monitor.platform.scheduler.bulk_tick(steps)
            self._offset += steps
            return window
        if self._blobs is None:
            self._bounds = partition_monitors(len(self._rigs), self._workers)
            self._sizes = [stop - start for start, stop in self._bounds]
            self._blobs = [
                pickle.dumps(
                    BatchEngine(self._rigs[start:stop],
                                chunk_size=self._chunk,
                                numerics=self._numerics),
                    protocol=pickle.HIGHEST_PROTOCOL)
                for start, stop in self._bounds
            ]
        with get_tracer().span("shard.advance", n_monitors=len(self._rigs),
                               workers=self._workers, steps=steps):
            window = self._advance_window(profile, steps, record_every_n)
        # Mirror the serial engine's scheduler accounting on the parent
        # rigs (the live state advanced inside the blobs).
        for rig in self._rigs:
            rig.monitor.platform.scheduler.bulk_tick(steps)
        self._offset += steps
        return window

    def _advance_window(self, profile: Profile, steps: int,
                        record_every_n: int) -> RunResult:
        """Ship every shard blob out for one window, collect in order.

        One single-process executor per shard, submitted concurrently;
        infrastructure failures degrade that shard to an in-process
        advance of the same blob (the blob is only replaced by a
        *successful* attempt, so a fallback resumes from exactly the
        state the failed worker started with).
        """
        registry = get_registry()
        tracer = get_tracer()
        event_log = get_event_log()
        profiler = get_profiler()
        observing = registry.enabled
        collecting = (observing or tracer.enabled or event_log.enabled
                      or profiler.enabled)
        telemetry = (TelemetryRequest(trace_context=tracer.current_context(),
                                      profile=profiler.enabled)
                     if collecting else None)
        n_shards = len(self._blobs)
        executors: dict[int, ProcessPoolExecutor] = {}
        futures: dict[int, object] = {}
        results: dict[int, RunResult] = {}
        harvests: dict[int, TelemetryHarvest] = {}
        fallback: list[int] = []
        try:
            for i in range(n_shards):
                executors[i] = ProcessPoolExecutor(max_workers=1)
                futures[i] = executors[i].submit(
                    _advance_shard, i, self._blobs[i], profile, steps,
                    record_every_n, telemetry)
            for i in range(n_shards):
                try:
                    index, block, new_blob, harvest = futures[i].result(
                        timeout=self._timeout_s)
                    results[index] = block
                    self._blobs[index] = new_blob
                    if harvest is not None:
                        harvests[index] = harvest
                    executors.pop(i).shutdown(wait=True)
                except ReproError:
                    raise
                except Exception:
                    _terminate(executors.pop(i))
                    fallback.append(i)
        finally:
            for executor in executors.values():
                _terminate(executor)
        for i in fallback:
            if observing:
                registry.counter(
                    "shard.fallbacks",
                    "shards degraded to the serial in-process "
                    "engine").inc()
            engine = pickle.loads(self._blobs[i])
            results[i] = engine.advance(profile, steps,
                                        record_every_n=record_every_n)
            self._blobs[i] = pickle.dumps(
                engine, protocol=pickle.HIGHEST_PROTOCOL)
        for i in range(n_shards):
            harvest = harvests.get(i)
            if harvest is not None:
                merge_harvest(harvest, registry=registry, tracer=tracer,
                              event_log=event_log, profiler=profiler)
        return RunResult.concat([results[i] for i in range(n_shards)])

    def _run_sharded(
            self, profile: Profile, record_every_n: int,
    ) -> tuple[RunResult, list[tuple[int, int]]]:
        """Submit shards, collect blocks, retry/fallback, merge.

        Returns the merged result plus the ``(start, stop)`` bounds of
        every shard that degraded to the in-process fallback (those
        parent rigs were consumed — and scheduler-ticked — serially).
        """
        registry = get_registry()
        tracer = get_tracer()
        event_log = get_event_log()
        profiler = get_profiler()
        observing = registry.enabled
        # Ask workers to collect telemetry when *any* parent sink is on
        # (each sink re-gates itself at merge time); the trace context
        # captured here is the live "shard.run" span, so worker spans
        # nest under it.
        collecting = (observing or tracer.enabled or event_log.enabled
                      or profiler.enabled)
        telemetry = (TelemetryRequest(trace_context=tracer.current_context(),
                                      profile=profiler.enabled)
                     if collecting else None)
        bounds = partition_monitors(len(self._rigs), self._workers)
        if observing:
            registry.gauge("shard.workers").set(self._workers)
            registry.counter("shard.runs").inc()
            worker_hist = registry.histogram(
                "shard.worker_s", "per-shard worker wall time")

        executors: dict[int, ProcessPoolExecutor] = {}
        futures: dict[int, object] = {}
        deadlines: dict[int, float | None] = {}
        started: dict[int, float] = {}
        attempts = {i: 0 for i in range(len(bounds))}
        results: dict[int, RunResult] = {}
        harvests: dict[int, TelemetryHarvest] = {}
        fallback: list[int] = []

        def launch(i: int) -> None:
            # One single-process executor per shard: a crashed or hung
            # worker cannot contaminate its siblings' futures.
            start, stop = bounds[i]
            executors[i] = ProcessPoolExecutor(max_workers=1)
            futures[i] = executors[i].submit(
                _run_shard, i, self._rigs[start:stop], profile,
                record_every_n, self._chunk, self._numerics, telemetry)
            started[i] = time.perf_counter()
            deadlines[i] = (None if self._timeout_s is None
                            else started[i] + self._timeout_s)

        try:
            queue = list(range(len(bounds)))
            for i in queue:
                launch(i)
            cursor = 0
            while cursor < len(queue):
                i = queue[cursor]
                cursor += 1
                deadline = deadlines[i]
                timeout = (None if deadline is None
                           else max(0.0, deadline - time.perf_counter()))
                try:
                    index, block, harvest = futures[i].result(timeout=timeout)
                    results[index] = block
                    if harvest is not None:
                        harvests[index] = harvest
                    if observing:
                        worker_hist.observe(
                            time.perf_counter() - started[i])
                    # The worker already returned; reap it promptly so
                    # no executor lingers into interpreter shutdown.
                    executors.pop(i).shutdown(wait=True)
                except ReproError:
                    # Deterministic simulation outcome (membrane burst,
                    # bad profile, ...): identical on every retry.
                    raise
                except Exception:
                    # Infrastructure failure: timeout, dead worker
                    # (BrokenProcessPool), pickling error, injected
                    # fault — retry on a fresh worker, then fall back.
                    _terminate(executors.pop(i))
                    attempts[i] += 1
                    if attempts[i] <= self._max_retries:
                        if observing:
                            registry.counter(
                                "shard.retries",
                                "shard re-submissions after worker "
                                "failure").inc()
                        launch(i)
                        queue.append(i)
                    else:
                        fallback.append(i)
        finally:
            for executor in executors.values():
                _terminate(executor)

        for i in fallback:
            if observing:
                registry.counter(
                    "shard.fallbacks",
                    "shards degraded to the serial in-process "
                    "engine").inc()
            start, stop = bounds[i]
            results[i] = BatchEngine(
                self._rigs[start:stop], chunk_size=self._chunk,
                numerics=self._numerics).run(
                profile, record_every_n=record_every_n)

        # Fold worker telemetry home in shard-index order — completion
        # order must not leak into the merged registry (determinism).
        # Fallback shards have no harvest: they already ran in-process
        # under the parent sinks.
        for i in range(len(bounds)):
            harvest = harvests.get(i)
            if harvest is not None:
                merge_harvest(harvest, registry=registry, tracer=tracer,
                              event_log=event_log, profiler=profiler)

        merged = RunResult.concat([results[i] for i in range(len(bounds))])
        return merged, [bounds[i] for i in fallback]

    # -- the shm backend -----------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "this engine is closed; build a fresh ShardedEngine")

    def _telemetry_request(self):
        """Worker telemetry request when any parent sink is on (or None)."""
        tracer = get_tracer()
        profiler = get_profiler()
        collecting = (get_registry().enabled or tracer.enabled
                      or get_event_log().enabled or profiler.enabled)
        if not collecting:
            return None
        return TelemetryRequest(trace_context=tracer.current_context(),
                                profile=profiler.enabled)

    @staticmethod
    def _check_replies(replies: dict[int, tuple]) -> dict[int, object]:
        """Split pool replies into payloads; raise on any failure.

        Deterministic :class:`~repro.errors.ReproError` re-raises
        as itself (lowest shard first — merge order, not completion
        order); any infrastructure failure raises
        :class:`~repro.runtime.shm.PoolWorkerError`.
        """
        payloads: dict[int, object] = {}
        infra: tuple[int, Exception] | None = None
        for index in sorted(replies):
            status, payload, _ = replies[index]
            if status == "ok":
                payloads[index] = payload
            elif isinstance(payload, ReproError):
                raise payload
            elif infra is None:
                infra = (index, payload)
        if infra is not None:
            index, exc = infra
            raise PoolWorkerError(
                f"shm pool worker for shard {index} failed: {exc}") from exc
        return payloads

    def _shard_starts(self) -> list[int]:
        """Row offsets of each live shard in the merged fleet layout."""
        starts, cursor = [], 0
        for size in self._sizes:
            starts.append(cursor)
            cursor += size
        return starts

    def _load_shm(self) -> None:
        """Load each shard's engine into the persistent pool, once.

        Fresh engines are pickled from the parent rigs; an engine
        restored from a checkpoint re-loads its dumped blobs instead
        (``_pending_blobs``), resuming bit-exactly from the cut point.
        """
        if self._eids is not None:
            return
        if self._sizes is None:
            self._bounds = partition_monitors(len(self._rigs), self._workers)
            self._sizes = [stop - start for start, stop in self._bounds]
        if self._pending_blobs is not None:
            blobs, self._pending_blobs = self._pending_blobs, None
        else:
            blobs = [
                pickle.dumps(
                    BatchEngine(self._rigs[start:stop],
                                chunk_size=self._chunk,
                                numerics=self._numerics),
                    protocol=pickle.HIGHEST_PROTOCOL)
                for start, stop in self._bounds
            ]
        pool = get_pool(len(blobs))
        eids = [next_engine_id() for _ in blobs]
        replies = pool.call_many(
            {i: ("load", eids[i], blobs[i]) for i in range(len(blobs))},
            timeout=self._timeout_s)
        self._check_replies(replies)
        self._eids = eids
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "shm.loads",
                "shard engines loaded into the pool").inc(len(eids))

    def _advance_messages(self, profile: Profile, steps: int,
                          record_every_n: int, eids: list[int],
                          block: SharedBlock | None, n_ticks: int,
                          telemetry) -> dict[int, tuple]:
        """Build one advance command per shard (shard 0 writes time)."""
        starts = self._shard_starts()
        messages = {}
        for i, eid in enumerate(eids):
            spec = {
                "shard": i,
                "profile": profile,
                "steps": steps,
                "record_every_n": record_every_n,
                "shm_name": None if block is None else block.name,
                "n_total": len(self._rigs),
                "n_ticks": n_ticks,
                "row_start": starts[i],
                "write_time": i == 0,
                "telemetry": telemetry,
            }
            messages[i] = ("advance", eid, spec)
        return messages

    def _merge_shm_harvests(self, replies: dict[int, tuple]) -> None:
        """Fold worker telemetry home in shard order (as spawn does)."""
        registry = get_registry()
        tracer = get_tracer()
        event_log = get_event_log()
        profiler = get_profiler()
        for index in sorted(replies):
            status, _, harvest = replies[index]
            if status == "ok" and harvest is not None:
                merge_harvest(harvest, registry=registry, tracer=tracer,
                              event_log=event_log, profiler=profiler)

    @staticmethod
    def _attach_pool_profiles(result: RunResult,
                              profiles: dict[int, dict]) -> RunResult:
        """Sum per-shard profile reports onto the merged result.

        The spawn backend gets this for free from ``RunResult.concat``;
        the zero-copy merge never sees the shard blocks, so the reports
        ride the command replies instead and are folded here.
        """
        stages: dict[str, dict] = {}
        for index in sorted(profiles):
            for name, values in (profiles[index] or {}).items():
                totals = stages.setdefault(
                    name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0})
                totals["calls"] += int(values.get("calls", 0))
                totals["wall_s"] += float(values.get("wall_s", 0.0))
                totals["cpu_s"] += float(values.get("cpu_s", 0.0))
        if stages:
            result.attach_profile(stages)
        return result

    def _assemble(self, block: SharedBlock | None, n_ticks: int,
                  alloc_s: float) -> RunResult:
        """Zero-copy merge: views over the block, pinned to its life."""
        registry = get_registry()
        if block is None:
            return empty_result(len(self._rigs))
        t0 = time.perf_counter()
        result = RunResult.from_shared(block.buf, len(self._rigs), n_ticks,
                                       keepalive=block)
        if registry.enabled:
            registry.histogram(
                "shm.attach_s",
                "per-window shared-block allocate + view assembly "
                "time").observe(alloc_s + (time.perf_counter() - t0))
            registry.counter("shm.windows",
                             "windows merged zero-copy").inc()
            registry.counter("shm.bytes",
                             "bytes of traces shared, not copied").inc(
                RunResult.shared_layout(len(self._rigs), n_ticks)[1])
        return result

    def _advance_shm(self, profile: Profile, steps: int,
                     record_every_n: int) -> RunResult:
        """One window on the pool: advance commands, zero-copy merge.

        No per-shard fallback here: between windows the live state is
        pool-resident, so a dead worker means the shard's state is gone
        — the window raises :class:`~repro.runtime.shm.PoolWorkerError`
        and a durable caller resumes from its last checkpoint.
        """
        self._load_shm()
        n_ticks = recorded_ticks(self._offset, steps, record_every_n)
        telemetry = self._telemetry_request()
        block = None
        alloc_s = 0.0
        if n_ticks:
            t0 = time.perf_counter()
            block = SharedBlock(
                RunResult.shared_layout(len(self._rigs), n_ticks)[1])
            alloc_s = time.perf_counter() - t0
        pool = get_pool(len(self._eids))
        try:
            replies = pool.call_many(
                self._advance_messages(profile, steps, record_every_n,
                                       self._eids, block, n_ticks,
                                       telemetry),
                timeout=self._timeout_s)
            payloads = self._check_replies(replies)
        except BaseException:
            if block is not None:
                block.close()
            raise
        self._merge_shm_harvests(replies)
        result = self._assemble(block, n_ticks, alloc_s)
        return self._attach_pool_profiles(
            result, {i: payloads[i]["profile"] for i in payloads})

    def _run_shm(self, profile: Profile, record_every_n: int, steps: int,
                 ) -> tuple[RunResult, list[tuple[int, int]]]:
        """One-shot run on the pool, with serial fallback per shard.

        Unlike :meth:`_advance_shm`, the parent rigs still hold the
        whole fleet state here, so a shard whose load or advance fails
        on infrastructure degrades to the serial in-process engine
        (``shard.fallbacks`` counts it) and writes its rows into the
        same shared block — the merged result is identical either way.
        """
        registry = get_registry()
        observing = registry.enabled
        telemetry = self._telemetry_request()
        bounds = partition_monitors(len(self._rigs), self._workers)
        self._bounds = bounds
        self._sizes = [stop - start for start, stop in bounds]
        if observing:
            registry.gauge("shard.workers").set(self._workers)
            registry.counter("shard.runs").inc()
        n_ticks = recorded_ticks(0, steps, record_every_n)
        alloc_s = 0.0
        block = None
        if n_ticks:
            t0 = time.perf_counter()
            block = SharedBlock(
                RunResult.shared_layout(len(self._rigs), n_ticks)[1])
            alloc_s = time.perf_counter() - t0
        pool = get_pool(len(bounds))
        eids = [next_engine_id() for _ in bounds]
        blobs = {
            i: pickle.dumps(
                BatchEngine(self._rigs[start:stop], chunk_size=self._chunk,
                            numerics=self._numerics),
                protocol=pickle.HIGHEST_PROTOCOL)
            for i, (start, stop) in enumerate(bounds)
        }
        fallback: list[int] = []
        try:
            loaded = pool.call_many(
                {i: ("load", eids[i], blobs[i]) for i in blobs},
                timeout=self._timeout_s)
            for i in sorted(loaded):
                if loaded[i][0] != "ok":
                    if isinstance(loaded[i][1], ReproError):
                        raise loaded[i][1]
                    fallback.append(i)
            live = [i for i in range(len(bounds)) if i not in fallback]
            messages = self._advance_messages(
                profile, steps, record_every_n, eids, block, n_ticks,
                telemetry)
            replies = pool.call_many(
                {i: messages[i] for i in live}, timeout=self._timeout_s)
            profiles: dict[int, dict] = {}
            for i in sorted(replies):
                if replies[i][0] != "ok":
                    if isinstance(replies[i][1], ReproError):
                        raise replies[i][1]
                    fallback.append(i)
                else:
                    profiles[i] = replies[i][1]["profile"]
            for i in sorted(fallback):
                if observing:
                    registry.counter(
                        "shard.fallbacks",
                        "shards degraded to the serial in-process "
                        "engine").inc()
                start, stop = bounds[i]
                part = BatchEngine(
                    self._rigs[start:stop], chunk_size=self._chunk,
                    numerics=self._numerics).run(
                    profile, record_every_n=record_every_n)
                profiles[i] = part.profile()
                if block is not None:
                    write_block_rows(block.buf, part, len(self._rigs),
                                     n_ticks, start, write_time=i == 0)
            self._merge_shm_harvests(replies)
            result = self._attach_pool_profiles(
                self._assemble(block, n_ticks, alloc_s), profiles)
        except BaseException:
            if block is not None:
                block.close()
            raise
        finally:
            # The run consumed the fleet: evict the pool-resident
            # engines (best-effort — dead workers have nothing loaded).
            pool.call_many({i: ("unload", eids[i]) for i in range(len(eids))},
                           timeout=self._timeout_s, spawn_missing=False)
        return result, [bounds[i] for i in fallback]

    # -- fleet surgery and lifecycle -----------------------------------------

    def drop(self, indices) -> None:
        """Permanently remove monitors from the live windowed fleet.

        The sharded counterpart of :meth:`BatchEngine.drop
        <repro.runtime.batch.BatchEngine.drop>`, routing each global
        index to its shard: spawn blobs are unpickled, dropped and
        re-pickled; shm shards receive a ``drop`` command (their
        engines mutate in place inside the pool).  Shards emptied
        entirely are retired.  Indices are engine-local fleet rows, as
        everywhere else; later windows simply omit the dropped rows.

        Raises
        ------
        ConfigurationError
            On out-of-range or duplicate indices, after :meth:`run`
            consumed the fleet, or on a closed engine.
        """
        self._require_open()
        if self._ran:
            raise ConfigurationError(
                "this engine's fleet was consumed by run(); nothing "
                "left to drop")
        wanted = [int(i) for i in indices]
        drop = sorted(set(wanted))
        if len(drop) != len(wanted):
            raise ConfigurationError("duplicate drop indices")
        for i in drop:
            if not 0 <= i < len(self._rigs):
                raise ConfigurationError(
                    f"drop index {i} out of range [0, {len(self._rigs)})")
        if not drop:
            return
        if self._sizes is not None:
            # Live shards exist: route global rows to (shard, local).
            starts = self._shard_starts()
            per_shard: dict[int, list[int]] = {}
            for row in drop:
                shard = 0
                while (shard + 1 < len(starts)
                       and row >= starts[shard + 1]):
                    shard += 1
                per_shard.setdefault(shard, []).append(row - starts[shard])
            if self._eids is not None:
                pool = get_pool(len(self._eids))
                replies = pool.call_many(
                    {shard: ("drop", self._eids[shard], local)
                     for shard, local in per_shard.items()},
                    timeout=self._timeout_s)
                self._check_replies(replies)
            elif self._blobs is not None:
                for shard, local in per_shard.items():
                    engine = pickle.loads(self._blobs[shard])
                    engine.drop(local)
                    self._blobs[shard] = pickle.dumps(
                        engine, protocol=pickle.HIGHEST_PROTOCOL)
            for shard, local in per_shard.items():
                self._sizes[shard] -= len(local)
            empty = [s for s, size in enumerate(self._sizes) if size == 0]
            if empty:
                if self._eids is not None:
                    pool.call_many(
                        {s: ("unload", self._eids[s]) for s in empty},
                        timeout=self._timeout_s, spawn_missing=False)
                for s in reversed(empty):
                    del self._sizes[s]
                    if self._eids is not None:
                        del self._eids[s]
                    if self._blobs is not None:
                        del self._blobs[s]
        keep = [i for i in range(len(self._rigs)) if i not in set(drop)]
        self._rigs = [self._rigs[i] for i in keep]
        self._workers = min(self._workers, max(1, len(self._rigs)))

    def close(self) -> None:
        """Release pool-resident state deterministically (idempotent).

        Evicts this engine's shard engines from the shm pool (the pool
        itself is shared and stays up — ``Session.close`` or
        :func:`repro.runtime.shm.shutdown_pool` owns its lifetime).  A
        closed engine refuses further runs.  Safe to call on any
        backend; spawn engines hold no external state.
        """
        if self._closed:
            return
        self._closed = True
        eids, self._eids = self._eids, None
        if eids:
            pool = existing_pool()
            if pool is not None:
                pool.call_many(
                    {i: ("unload", eid) for i, eid in enumerate(eids)},
                    timeout=5.0, spawn_missing=False)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _dump_blobs(self) -> list[bytes]:
        """Dump pool-resident shard engines back into pickled blobs."""
        pool = get_pool(len(self._eids))
        replies = pool.call_many(
            {i: ("dump", eid) for i, eid in enumerate(self._eids)},
            timeout=self._timeout_s)
        payloads = self._check_replies(replies)
        return [payloads[i] for i in range(len(self._eids))]

    def __getstate__(self):
        """Pickle an shm engine as owned bytes, never pool references.

        A spawn engine pickles as-is (its window state already lives in
        ``_blobs``).  An shm engine with pool-resident shards dumps
        them into ``_pending_blobs`` first — this is what lets
        :func:`repro.runtime.checkpoint.save_checkpoint` capture a
        running shm engine; unpickling re-loads the blobs into the
        pool on the next window.
        """
        state = dict(self.__dict__)
        if self._eids is not None:
            state["_pending_blobs"] = self._dump_blobs()
            state["_eids"] = None
        return state
