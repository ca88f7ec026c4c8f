"""Process-parallel sharded fleet execution with deterministic parity.

The batch engine (:mod:`repro.runtime.batch`) vectorizes within one
process; this module shards a fleet **across** worker processes while
keeping the result bit-identical to the serial path:

- The fleet is partitioned into contiguous shards
  (:func:`partition_monitors`).  Per-monitor randomness lives entirely
  inside each rig (its seeds were spawned with
  ``numpy.random.SeedSequence.spawn`` at build time — see
  :meth:`repro.runtime.FleetSpec.monitor_seeds`), so moving a rig to
  another process moves its noise streams with it, untouched.
- The shared line plant is deterministic given the profile (no fleet
  RNG), and the batch engine validates that every rig starts from the
  same bulk state, so each shard re-derives the identical line
  trajectory independently.
- Each shard's :class:`~repro.runtime.batch.BatchEngine` lives in the
  parent as a pickled blob.  Every window ships each blob to its own
  single-process ``concurrent.futures.ProcessPoolExecutor`` worker,
  which advances it and sends back the shard's ``(N_shard, M)`` trace
  block together with the re-pickled engine.  :meth:`ShardedEngine.run`
  is one such window over the whole profile.
- Blocks are merged in shard order with :meth:`RunResult.concat`;
  worker scheduling order cannot reorder rows.

The parity contract is therefore *exact*: for any shard count and any
worker interleaving, ``ShardedEngine.run`` returns the same bits as
``BatchEngine.run`` on the whole fleet (``tests/test_parallel_parity.py``
asserts this for shard counts 1, 2, 3 and N).

Failure semantics: a worker crash, an unpicklable payload or a hung
worker triggers a bounded re-submission of just that shard on a fresh
worker (``max_retries`` times), then an in-process advance of the same
blob, so a sharded window degrades to the serial engine rather than
failing.  Every worker process is reaped before the call returns; none
outlives a window.
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
``shard.run`` span (one per dispatch, run or window), and ships a
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

Because the complete run state lives in the parent between windows,
any slicing of a run into windows is bit-identical to the
uninterrupted run — and the whole engine (blobs included) is itself
picklable, which is what :func:`repro.runtime.checkpoint.save_checkpoint`
relies on.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import accumulate

from repro.errors import ConfigurationError, ReproError
from repro.observability import (get_event_log, get_profiler, get_registry,
                                 get_tracer)
from repro.observability.remote import (TelemetryHarvest, TelemetryRequest,
                                        harvest_worker_telemetry,
                                        install_worker_telemetry,
                                        merge_harvest)
from repro.runtime.batch import BatchEngine, _drop_rows, _validate_fleet
from repro.runtime.faults import shard_site
from repro.runtime.kernels import resolve_numerics
from repro.runtime.result import RunResult
from repro.state import state_of
from repro.station.profiles import Profile
from repro.station.rig import TestRig

__all__ = ["ShardedEngine", "partition_monitors"]


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


def _advance_shard(shard_index: int, blob: bytes, profile: Profile,
                   steps: int, record_every_n: int,
                   telemetry: TelemetryRequest | None = None,
                   ) -> tuple[tuple[RunResult, bytes],
                              TelemetryHarvest | None]:
    """Worker entrypoint: advance one pickled shard engine by a window.

    The blob is the shard's live :class:`BatchEngine` (rigs, RNG
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
    crashed, hung or raising attempt returns nothing, so retried shards
    cannot double-count.
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
    return (block, new_blob), harvest


def _advance_blob(blob: bytes, profile: Profile, steps: int,
                  record_every_n: int) -> tuple[RunResult, bytes]:
    """In-process fallback for one window: :func:`_advance_shard` minus
    the worker (fault site and telemetry bracket)."""
    engine = pickle.loads(blob)
    block = engine.advance(profile, steps, record_every_n=record_every_n)
    return block, pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)


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
        parent).  Treat them as spent once the engine has run, exactly
        like rigs handed to a :class:`BatchEngine`.
    workers:
        Worker process count, a positive integer.  The effective shard
        count is ``min(workers, len(rigs))``.
    max_retries:
        Re-submissions allowed per shard after an infrastructure
        failure (crash / hang / pickling error) before that shard falls
        back to the serial in-process engine — per window.
    timeout_s:
        Per-attempt wall-clock budget, measured from that attempt's
        submission; ``None`` disables the watchdog.  A timed-out worker
        is killed, not abandoned.
    numerics:
        Kernel numerics mode for every shard engine (``"exact"``, the
        default, or ``"fast"``).  Shard-count invariance holds per mode:
        every worker runs the same kernels the serial engine would.

    Raises
    ------
    ConfigurationError
        From the fleet homogeneity validation, or on invalid knobs
        (``reason="numerics"`` for an unknown numerics mode).
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
        self._rigs = list(rigs)
        self._numerics = resolve_numerics(numerics)
        # Validate the fleet in the parent, before any process is
        # spawned, and pin its clocks, which outlive a drop of every rig.
        _validate_fleet(self._rigs)
        self._dt = self._rigs[0].monitor.platform.dt_s
        self._line_time = float(state_of(self._rigs[0].line)["time_s"])
        self._workers = min(int(workers), len(self._rigs))
        self._max_retries = int(max_retries)
        self._timeout_s = timeout_s
        self._offset = 0
        self._closed = False
        # Windowed state: one pickled shard engine per live shard, and
        # each shard's live row count (drop-aware).
        self._blobs: list[bytes] | None = None
        self._sizes: list[int] | None = None

    @property
    def workers(self) -> int:
        """Resolved worker/shard count (``min(workers, len(rigs))``)."""
        return self._workers

    @property
    def offset(self) -> int:
        """Samples already advanced (the absolute step of the next tick).

        Zero on a fresh engine; grows with every :meth:`run` and
        :meth:`advance` window.  A run sliced into ``advance`` windows
        at any offsets is bit-identical to one uninterrupted
        :meth:`run` — this property marks the cut point a checkpoint
        captures.
        """
        return self._offset

    @property
    def numerics(self) -> str:
        """The resolved numerics mode shared by every shard engine."""
        return self._numerics

    def run(self, profile: Profile, record_every_n: int = 20) -> RunResult:
        """Execute a profile over the sharded fleet; merged traces out.

        Exactly ``advance(profile, steps)`` for the profile's full step
        count: one window from the current :attr:`offset`.
        Bit-identical to ``BatchEngine(rigs).run(profile, ...)`` for any
        shard count and any worker completion order.

        Raises
        ------
        ConfigurationError
            On an empty profile, non-positive decimation, a closed
            engine, or if every rig has been :meth:`drop`-ped.
        SensorFault
            On membrane burst or housing overpressure, exactly as the
            serial engine would.
        """
        steps = int(round(profile.duration_s / self._dt))
        if steps < 1:
            raise ConfigurationError("profile shorter than one loop tick")
        return self.advance(profile, steps, record_every_n)

    def advance(self, profile: Profile, steps: int,
                record_every_n: int = 20) -> RunResult:
        """Advance ``steps`` samples across the sharded fleet; one
        window's merged traces out.

        The sharded implementation of the ``advance/offset`` contract:
        consecutive windows concatenated time-wise are bit-identical to
        one uninterrupted run, for any window boundaries and any worker
        scheduling.  On the first call each shard's rigs are folded
        into a pickled :class:`BatchEngine` blob; every window ships
        each blob to a fresh single-process worker and stores the
        advanced blob it sends back, so between windows the complete
        run state lives in the parent — ready to be checkpointed by
        pickling this engine.

        A worker that dies, hangs or fails to pickle is retried on a
        fresh worker (``shard.retries``), then that shard's window
        degrades to an in-process advance of the same blob
        (``shard.fallbacks``).  A blob is only replaced once its window
        succeeded, so a retry or fallback resumes from exactly the
        state the failed worker started with.  Deterministic simulation
        errors re-raise immediately.  Each call opens one ``shard.run``
        span.

        Raises
        ------
        ConfigurationError
            On non-positive ``steps``/``record_every_n``, a closed
            engine, or if every rig has been :meth:`drop`-ped.
        SensorFault
            On membrane burst or housing overpressure, exactly as the
            serial engine would.
        """
        if steps < 1:
            raise ConfigurationError("advance needs at least one step")
        if record_every_n < 1:
            raise ConfigurationError("record_every_n must be >= 1")
        self._require_open()
        if not self._rigs:
            raise ConfigurationError("every rig was dropped; nothing to "
                                     "advance")
        if self._blobs is None:
            bounds = partition_monitors(len(self._rigs), self._workers)
            self._sizes = [stop - start for start, stop in bounds]
            self._blobs = [
                pickle.dumps(
                    BatchEngine(self._rigs[start:stop],
                                numerics=self._numerics),
                    protocol=pickle.HIGHEST_PROTOCOL)
                for start, stop in bounds
            ]
        registry = get_registry()
        if registry.enabled:
            registry.gauge("shard.workers").set(self._workers)
            registry.counter("shard.runs").inc()
        with get_tracer().span("shard.run", n_monitors=len(self._rigs),
                               workers=self._workers, steps=steps):
            payloads = self._dispatch(profile, steps, record_every_n)
            self._blobs = [blob for _, blob in payloads]
            window = RunResult.concat([block for block, _ in payloads])
        # Mirror the serial engine's scheduler accounting on the parent
        # rigs (the live state advanced inside the blobs).
        for rig in self._rigs:
            rig.monitor.platform.scheduler.bulk_tick(steps)
        self._offset += steps
        return window

    def _telemetry_request(self) -> TelemetryRequest | None:
        """Worker telemetry request when any parent sink is on (or None).

        Each sink re-gates itself at merge time; the trace context
        captured here is the live ``shard.run`` span, so worker spans
        nest under it.
        """
        tracer = get_tracer()
        profiler = get_profiler()
        collecting = (get_registry().enabled or tracer.enabled
                      or get_event_log().enabled or profiler.enabled)
        if not collecting:
            return None
        return TelemetryRequest(trace_context=tracer.current_context(),
                                profile=profiler.enabled)

    def _dispatch(self, *window) -> list[tuple[RunResult, bytes]]:
        """The one submit/collect/retry/fallback loop.

        Shard ``i`` runs ``_advance_shard(i, blob_i, *window,
        telemetry=...)`` on its own single-process executor, all shards
        submitted at once; a crashed or hung worker cannot contaminate
        its siblings' futures.  Each attempt's ``timeout_s`` budget runs from its own
        submission, whatever order the results are collected in.  An
        infrastructure failure (timeout, dead worker, pickling error,
        injected fault) kills that worker and re-submits the shard up to
        ``max_retries`` times, then :func:`_advance_blob` runs it
        in-process under the parent sinks.  A deterministic
        :class:`~repro.errors.ReproError` re-raises at once — retrying
        cannot change physics.  Every worker is reaped before this
        returns or raises.

        Returns the per-shard ``(block, new_blob)`` payloads in shard
        order.
        """
        registry = get_registry()
        tracer = get_tracer()
        event_log = get_event_log()
        profiler = get_profiler()
        observing = registry.enabled
        telemetry = self._telemetry_request()
        n_shards = len(self._blobs)
        if observing:
            worker_hist = registry.histogram(
                "shard.worker_s", "per-shard worker wall time")

        executors: dict[int, ProcessPoolExecutor] = {}
        futures: dict[int, object] = {}
        started: dict[int, float] = {}
        attempts = [0] * n_shards
        payloads: dict[int, object] = {}
        harvests: dict[int, TelemetryHarvest] = {}
        fallback: list[int] = []

        def launch(i: int) -> None:
            executors[i] = ProcessPoolExecutor(max_workers=1)
            futures[i] = executors[i].submit(_advance_shard, i,
                                             self._blobs[i], *window,
                                             telemetry=telemetry)
            started[i] = time.perf_counter()

        try:
            queue = list(range(n_shards))
            for i in queue:
                launch(i)
            cursor = 0
            while cursor < len(queue):
                i = queue[cursor]
                cursor += 1
                timeout = (None if self._timeout_s is None else max(
                    0.0, started[i] + self._timeout_s - time.perf_counter()))
                try:
                    payloads[i], harvest = futures[i].result(timeout=timeout)
                    if harvest is not None:
                        harvests[i] = harvest
                    if observing:
                        worker_hist.observe(time.perf_counter() - started[i])
                    # The worker already returned; reap it promptly so
                    # no process outlives the call.
                    executors.pop(i).shutdown(wait=True)
                except ReproError:
                    raise
                except Exception:
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
            payloads[i] = _advance_blob(self._blobs[i], *window)
        # Fold worker telemetry home in shard-index order — completion
        # order must not leak into the merged registry (determinism).
        # Fallback shards have no harvest: they already ran in-process
        # under the parent sinks.
        for i in range(n_shards):
            harvest = harvests.get(i)
            if harvest is not None:
                merge_harvest(harvest, registry=registry, tracer=tracer,
                              event_log=event_log, profiler=profiler)
        return [payloads[i] for i in range(n_shards)]

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "this engine is closed; build a fresh ShardedEngine")

    # -- fleet surgery and lifecycle -----------------------------------------

    def drop(self, indices) -> None:
        """Permanently remove monitors from the live windowed fleet.

        The sharded counterpart of :meth:`BatchEngine.drop
        <repro.runtime.batch.BatchEngine.drop>`, routing each global
        index to its shard, whose blob is unpickled, dropped and
        re-pickled.  Shards emptied entirely are retired.  Indices are
        engine-local fleet rows, as everywhere else; later windows
        simply omit the dropped rows.

        Raises
        ------
        ConfigurationError
            On out-of-range or duplicate indices, or on a closed engine.
        """
        self._require_open()
        drop_set = _drop_rows(indices, len(self._rigs))
        if not drop_set:
            return
        if self._blobs is not None:
            # Live shards exist: route global rows to (shard, local).
            starts = list(accumulate([0] + self._sizes[:-1]))
            per_shard: dict[int, list[int]] = {}
            for row in sorted(drop_set):
                shard = 0
                while (shard + 1 < len(starts)
                       and row >= starts[shard + 1]):
                    shard += 1
                per_shard.setdefault(shard, []).append(row - starts[shard])
            for shard, local in per_shard.items():
                engine = pickle.loads(self._blobs[shard])
                engine.drop(local)
                self._blobs[shard] = pickle.dumps(
                    engine, protocol=pickle.HIGHEST_PROTOCOL)
                self._sizes[shard] -= len(local)
            for s in reversed(range(len(self._sizes))):
                if self._sizes[s] == 0:
                    del self._sizes[s]
                    del self._blobs[s]
        keep = [i for i in range(len(self._rigs)) if i not in drop_set]
        self._rigs = [self._rigs[i] for i in keep]
        self._workers = min(self._workers, max(1, len(self._rigs)))

    def close(self) -> None:
        """End the engine's life (idempotent); it refuses further use.

        No worker outlives a call, so there is nothing to release; this
        exists so engine owners (:class:`~repro.runtime.mixed.MixedEngine`,
        :class:`~repro.runtime.checkpoint.WindowedRun`) can end every
        engine the same way.
        """
        self._closed = True

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
