"""Zero-copy shared-memory parallel runtime: the persistent worker pool.

The spawn backend (:mod:`repro.runtime.parallel`) pays a process fork,
a module import and a full engine pickle round-trip per shard *per
window*, and merges shards by shipping whole trace arrays back through
the executor pipe.  For small fleets and short windows that overhead
dominates — the 1-CPU throughput bench records 0.31x against serial.
This module removes both costs:

- :class:`ShmPool` keeps a **persistent pool of worker processes**
  alive across runs and windows.  A worker receives a shard's pickled
  :class:`~repro.runtime.batch.BatchEngine` exactly once (``load``) and
  afterwards only small ``advance`` commands — the spawn, import and
  engine-pickle costs are amortized over the whole run instead of being
  paid per window.
- Trace output rides **shared memory**: the parent allocates one
  :class:`multiprocessing.shared_memory.SharedMemory` block per window
  (:class:`SharedBlock`), sized by :meth:`RunResult.shared_layout
  <repro.runtime.result.RunResult.shared_layout>`; each worker writes
  its shard's rows in place, and the merge is
  :meth:`RunResult.from_shared
  <repro.runtime.result.RunResult.from_shared>` — pointer assembly over
  the block, not array copies.

Determinism is untouched: workers advance the *same* pickled engines
the spawn backend would, over the same SeedSequence-partitioned rigs,
so the shm backend is bit-identical to the serial engine for any worker
count (``tests/test_shm_parity.py`` holds it to the same golden
archives as every other path).

Ownership and lifetime:

- The parent owns every block.  A block created for a window is handed
  to the merged :class:`RunResult` as its ``keepalive``; when the
  result is garbage-collected the block is closed and unlinked
  (``weakref.finalize``), so traces live exactly as long as their
  result.  Pickling such a result copies the arrays out — a checkpoint
  of shm-backed windows holds owned arrays, never segment references.
- Workers attach blocks by name only for the duration of one write.
  On Python < 3.13 (no ``track=False``) the attachment is explicitly
  unregistered from the resource tracker, so worker exits cannot log
  spurious leaked-segment warnings.
- The process-global pool (:func:`get_pool` / :func:`shutdown_pool`)
  is torn down by ``Session.close()`` after an shm run, and by an
  ``atexit`` hook as a backstop; :class:`ShmPool` is also a context
  manager for callers that want scoped workers.

Observability: ``shm.pool.workers`` gauge, ``shm.pool.spawns`` /
``shm.loads`` / ``shm.windows`` / ``shm.bytes`` counters and the
``shm.attach_s`` histogram (per-window block allocate + view assembly —
the zero-copy overhead the X4 bench bounds), plus ``shm.run`` /
``shm.advance`` parent spans and a ``shm.worker`` span inside each
worker command (harvested over the command pipe exactly like the spawn
backend's ``shard.worker`` spans).
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import threading
import time
import weakref
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.observability import get_registry, get_tracer
from repro.observability.remote import (harvest_worker_telemetry,
                                        install_worker_telemetry)
from repro.runtime.result import RunResult

__all__ = ["BACKENDS", "resolve_backend", "recorded_ticks", "SharedBlock",
           "ShmPool", "PoolWorkerError", "get_pool", "shutdown_pool"]

#: Parallel backends understood by every ``backend=`` knob.
BACKENDS = ("spawn", "shm")

#: Engine ids are process-global so independent engines can share the
#: pool (a FleetService cohort next to a Session run) without clashing.
_ENGINE_IDS = itertools.count(1)


class PoolWorkerError(RuntimeError):
    """A pool worker died, hung or answered garbage (infrastructure).

    Deterministic simulation errors (:class:`~repro.errors.ReproError`)
    are *never* wrapped in this — they come back as themselves.
    """


def resolve_backend(backend: str) -> str:
    """Validate a ``backend=`` knob (``"spawn"`` or ``"shm"``).

    Raises
    ------
    ConfigurationError
        ``reason="backend"`` on an unknown backend name.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown parallel backend {backend!r}; use "
            + " or ".join(repr(b) for b in BACKENDS), reason="backend")
    return backend


def next_engine_id() -> int:
    """A fresh pool-wide engine id (monotonic per process)."""
    return next(_ENGINE_IDS)


def recorded_ticks(offset: int, steps: int, record_every_n: int) -> int:
    """Ticks the decimation records over ``[offset, offset + steps)``.

    The engines record the absolute step indices divisible by
    ``record_every_n`` (the PR 6 windowing contract); this mirrors that
    rule so the parent can size a shared trace block *before* any
    worker runs — the block must fit the window exactly.
    """
    if steps < 1 or record_every_n < 1:
        raise ConfigurationError("steps and record_every_n must be >= 1")
    end = offset + steps
    first = -(-offset // record_every_n) * record_every_n
    if first >= end:
        return 0
    return (end - 1 - first) // record_every_n + 1


def empty_result(n_monitors: int) -> RunResult:
    """An ``(N, 0)`` zero-tick result (window shorter than the stride)."""
    empty = np.empty((n_monitors, 0))
    return RunResult(
        time_s=np.empty(0),
        true_speed_mps=empty,
        reference_mps=empty.copy(),
        measured_mps=empty.copy(),
        direction=np.empty((n_monitors, 0), dtype=np.int64),
        pressure_pa=empty.copy(),
        temperature_k=empty.copy(),
        bubble_coverage=empty.copy(),
    )


# -- shared blocks -----------------------------------------------------------


def _release_segment(segment: shared_memory.SharedMemory) -> None:
    """Unlink then close a parent-owned segment (finalizer body).

    Unlink comes first: it is an OS-level name removal that cannot fail
    on exports, so the segment never outlives its owner in the
    namespace.  If a stray trace view still references the mapping,
    ``close`` raises ``BufferError`` — the map then simply lives until
    the view dies (the data stays valid), with nothing left to leak.
    """
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    try:
        segment.close()
    except BufferError:
        # A trace view still references the mapping (common at
        # interpreter exit, where finalizers outrun result refs).
        # Drop our handles instead: the mmap dies with its last view,
        # the fd closes now, and ``SharedMemory.__del__`` sees an
        # already-closed object instead of re-raising.
        segment._buf = None
        segment._mmap = None
        if segment._fd >= 0:
            try:
                os.close(segment._fd)
            except OSError:
                pass
            segment._fd = -1


def _detached_block() -> None:
    """Pickle placeholder: a block never travels between processes."""
    return None


class SharedBlock:
    """One parent-owned shared-memory segment with deterministic cleanup.

    Created by the parent to hold a window's traces; workers attach by
    :attr:`name` and write their rows in place.  The block is freed
    (closed *and* unlinked) when the last reference dies — typically
    the :class:`~repro.runtime.result.RunResult` holding it as a
    keepalive — or eagerly via :meth:`close`.  Pickling a block yields
    ``None``: results detach into owned arrays when serialized, so a
    checkpoint can never smuggle a segment reference across processes.
    """

    def __init__(self, size: int) -> None:
        self._segment = shared_memory.SharedMemory(
            create=True, size=max(1, int(size)))
        self._finalizer = weakref.finalize(
            self, _release_segment, self._segment)

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._segment.name

    @property
    def size(self) -> int:
        """Mapped size in bytes (>= the requested size)."""
        return self._segment.size

    @property
    def buf(self):
        """The segment's writable memoryview."""
        return self._segment.buf

    def close(self) -> None:
        """Free the segment now (idempotent)."""
        self._finalizer()

    def __reduce__(self):
        return (_detached_block, ())


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without resource-tracker ownership.

    Python 3.13+ has ``track=False`` for exactly this; on older
    interpreters every attach is *registered* with a resource tracker
    as if this process owned the segment.  Compensating afterwards is
    a trap either way: which tracker received the registration depends
    on whether one was already running when this worker forked — a
    worker sharing the parent's tracker must NOT unregister (it would
    strip the parent's own create-registration), while a worker that
    lazily started its own tracker must (or that tracker warns about
    "leaked" segments the parent already unlinked).  So instead of
    guessing, suppress the registration at the source: the attach runs
    with ``resource_tracker.register`` stubbed out, and no tracker
    anywhere ever thinks a worker owns the block.  The pool's command
    loop is single-threaded, so the brief patch cannot race.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def write_block_rows(buf, block: RunResult, n_total: int, n_ticks: int,
                     row_start: int, write_time: bool) -> None:
    """Write one shard's trace block into a shared buffer, in place.

    Used by pool workers (their half of the zero-copy contract) and by
    the parent when a shard degrades to the serial fallback.  ``block``
    must hold exactly ``n_ticks`` recorded ticks — the buffer was sized
    by :func:`recorded_ticks` before the window ran.
    """
    if len(block) != n_ticks:
        raise PoolWorkerError(
            f"shard recorded {len(block)} ticks, expected {n_ticks}")
    offsets, _ = RunResult.shared_layout(n_total, n_ticks)
    if write_time:
        view = np.frombuffer(buf, dtype=np.float64, count=n_ticks,
                             offset=offsets["time_s"])
        view[:] = np.asarray(block.time_s)
    rows = block.n_monitors
    for name in RunResult.STACKED_FIELDS:
        dtype = np.int64 if name == "direction" else np.float64
        view = np.frombuffer(buf, dtype=dtype, count=n_total * n_ticks,
                             offset=offsets[name]).reshape(n_total, n_ticks)
        view[row_start:row_start + rows] = np.asarray(getattr(block, name))


# -- the worker command loop -------------------------------------------------


def _handle(engines: dict, msg: tuple) -> tuple:
    """Execute one pool command; returns ``("ok", payload, harvest)``."""
    op = msg[0]
    if op == "ping":
        return ("ok", os.getpid(), None)
    if op == "load":
        _, eid, blob = msg
        engines[eid] = pickle.loads(blob)
        return ("ok", None, None)
    if op == "dump":
        _, eid = msg
        return ("ok", pickle.dumps(engines[eid],
                                   protocol=pickle.HIGHEST_PROTOCOL), None)
    if op == "drop":
        _, eid, local = msg
        engines[eid].drop(local)
        return ("ok", None, None)
    if op == "unload":
        _, eid = msg
        engines.pop(eid, None)
        return ("ok", None, None)
    if op == "advance":
        _, eid, spec = msg
        # The same fault site the spawn workers honour, so the failure
        # tests can kill/hang/raise a specific shm shard too.
        from repro.runtime.faults import shard_site
        shard_site(spec["shard"])
        telemetry = spec["telemetry"]
        previous = (install_worker_telemetry(telemetry)
                    if telemetry is not None else None)
        harvest = None
        try:
            engine = engines[eid]
            with get_tracer().span("shm.worker", shard=spec["shard"],
                                   steps=spec["steps"]):
                block = engine.advance(spec["profile"], spec["steps"],
                                       record_every_n=spec["record_every_n"])
            if spec["shm_name"] is not None:
                segment = _attach_segment(spec["shm_name"])
                try:
                    write_block_rows(segment.buf, block, spec["n_total"],
                                     spec["n_ticks"], spec["row_start"],
                                     spec["write_time"])
                finally:
                    segment.close()
            elif len(block):
                raise PoolWorkerError(
                    f"shard recorded {len(block)} ticks into no buffer")
        finally:
            if previous is not None:
                harvest = harvest_worker_telemetry(previous)
        # Traces travel through the block; the reply carries only the
        # tick count and the shard's per-stage profile report (the
        # spawn backend ships the latter on its result blocks, so the
        # zero-copy path must not lose it).
        return ("ok", {"ticks": len(block), "profile": block.profile()},
                harvest)
    raise PoolWorkerError(f"unknown pool op {op!r}")


def _worker_main(conn) -> None:
    """A pool worker: hold engines, answer commands until ``close``.

    Engines live here between windows — that is the whole point: after
    one ``load`` the parent only ever sends small advance commands.
    Every reply is ``("ok", payload, harvest)`` or
    ``("error", exception, None)``; deterministic
    :class:`~repro.errors.ReproError` travels back as itself, anything
    else is stringified if it fails to pickle.
    """
    engines: dict = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "close":
            break
        try:
            reply = _handle(engines, msg)
        except BaseException as exc:  # noqa: BLE001 — must answer
            try:
                pickle.dumps(exc)
                reply = ("error", exc, None)
            except Exception:
                reply = ("error",
                         PoolWorkerError(f"{type(exc).__name__}: {exc}"),
                         None)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# -- the pool ----------------------------------------------------------------


class _Worker:
    """One pool slot: a live process and its command pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn


class ShmPool:
    """A persistent pool of engine-hosting worker processes.

    Workers are spawned lazily by :meth:`ensure` and reused until
    :meth:`close` — a run's second window (or a session's second run)
    pays no process start-up at all.  The pool is index-addressed:
    shard ``i`` of an engine talks to worker ``i``; several engines may
    share the pool (distinct engine ids keep their state apart inside
    each worker).

    The command cycle is synchronous per call: :meth:`call_many` sends
    every message, then collects every reply — the workers compute
    their shards concurrently in between.  A worker that dies or times
    out is terminated and its slot cleared (respawned on the next
    ``ensure``); its failure comes back as an ``("error", exc, None)``
    reply, never as a raised exception, so callers own per-shard
    degradation policy.
    """

    def __init__(self, context=None) -> None:
        self._ctx = context if context is not None \
            else multiprocessing.get_context()
        self._workers: list[_Worker | None] = []
        self._lock = threading.Lock()
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ran (a closed pool never respawns)."""
        return self._closed

    @property
    def size(self) -> int:
        """Live worker count."""
        with self._lock:
            return sum(1 for w in self._workers if w is not None)

    def ensure(self, n: int) -> None:
        """Grow the pool to at least ``n`` live workers.

        Raises
        ------
        ConfigurationError
            On a non-positive count or a closed pool.
        """
        if n < 1:
            raise ConfigurationError("pool needs at least one worker")
        with self._lock:
            self._ensure(n)

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(target=_worker_main, args=(child_conn,),
                                    daemon=True, name="repro-shm-worker")
        process.start()
        child_conn.close()
        registry = get_registry()
        if registry.enabled:
            registry.counter("shm.pool.spawns",
                             "pool worker processes started").inc()
        return _Worker(process, parent_conn)

    def _ensure(self, n: int) -> None:
        if self._closed:
            raise ConfigurationError("this worker pool is closed")
        while len(self._workers) < n:
            self._workers.append(None)
        for i in range(n):
            if self._workers[i] is None:
                self._workers[i] = self._spawn()
        registry = get_registry()
        if registry.enabled:
            registry.gauge("shm.pool.workers").set(
                sum(1 for w in self._workers if w is not None))

    def _kill(self, index: int) -> None:
        worker = self._workers[index]
        if worker is None:
            return
        self._workers[index] = None
        try:
            worker.conn.close()
        except Exception:
            pass
        try:
            worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
        except Exception:
            pass

    def call_many(self, messages: dict[int, tuple],
                  timeout: float | None = None,
                  spawn_missing: bool = True) -> dict[int, tuple]:
        """One command cycle: send all messages, collect all replies.

        ``messages`` maps worker index to command tuple.  Replies map
        the same indices to ``("ok", payload, harvest)`` or
        ``("error", exc, None)``.  With ``spawn_missing=False`` dead
        slots are not respawned (used by best-effort teardown: there is
        nothing to unload from a worker that no longer exists).
        """
        if not messages:
            return {}
        out: dict[int, tuple] = {}
        with self._lock:
            if spawn_missing:
                self._ensure(max(messages) + 1)
            elif len(self._workers) <= max(messages):
                self._workers.extend(
                    [None] * (max(messages) + 1 - len(self._workers)))
            live: dict[int, _Worker] = {}
            for index in sorted(messages):
                worker = self._workers[index]
                if worker is None:
                    out[index] = ("error",
                                  PoolWorkerError(f"worker {index} is gone"),
                                  None)
                    continue
                try:
                    worker.conn.send(messages[index])
                    live[index] = worker
                except Exception as exc:
                    self._kill(index)
                    out[index] = ("error", exc, None)
            deadline = (None if timeout is None
                        else time.monotonic() + timeout)
            for index, worker in live.items():
                try:
                    if deadline is not None:
                        remaining = max(0.0, deadline - time.monotonic())
                        if not worker.conn.poll(remaining):
                            raise PoolWorkerError(
                                f"pool worker {index} timed out")
                    out[index] = worker.conn.recv()
                except Exception as exc:
                    self._kill(index)
                    out[index] = ("error", exc, None)
        return out

    def call(self, index: int, message: tuple,
             timeout: float | None = None) -> tuple:
        """Single-worker :meth:`call_many` convenience."""
        return self.call_many({index: message}, timeout=timeout)[index]

    def close(self) -> None:
        """Stop every worker deterministically (idempotent).

        Sends ``close``, joins, escalates to terminate/kill on a
        stuck worker, and closes the pipes — nothing is left for
        interpreter teardown to warn about.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = [w for w in self._workers if w is not None]
            self._workers = []
        for worker in workers:
            try:
                worker.conn.send(("close",))
            except Exception:
                pass
        for worker in workers:
            try:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=2.0)
            except Exception:
                pass
            try:
                worker.conn.close()
            except Exception:
                pass
        registry = get_registry()
        if registry.enabled:
            registry.gauge("shm.pool.workers").set(0)

    def __enter__(self) -> "ShmPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- the process-global pool -------------------------------------------------

_POOL: ShmPool | None = None
_POOL_LOCK = threading.Lock()


def get_pool(workers: int | None = None) -> ShmPool:
    """The process-global pool, created on first use.

    With ``workers`` given the pool is grown to at least that many live
    workers.  A pool torn down by :func:`shutdown_pool` (or
    ``Session.close``) is transparently replaced on the next call.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL.closed:
            _POOL = ShmPool()
        pool = _POOL
    if workers is not None:
        pool.ensure(workers)
    return pool


def existing_pool() -> ShmPool | None:
    """The live process-global pool, or None — never creates one."""
    with _POOL_LOCK:
        if _POOL is not None and not _POOL.closed:
            return _POOL
        return None


def shutdown_pool() -> None:
    """Tear the process-global pool down (idempotent).

    ``Session.close()`` calls this after an shm-backed run; an
    ``atexit`` hook calls it as a backstop so bare-engine users cannot
    leak worker processes past interpreter shutdown.
    """
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.close()


atexit.register(shutdown_pool)
