"""Bounded per-client snapshot streams with error-bypass delivery.

Each attached client owns one :class:`SnapshotStream`: the service tick
loop pushes :class:`Snapshot` windows in, the client's async iterator
pulls them out.  The queue is *bounded* — the producer checks
:attr:`SnapshotStream.has_space` before advancing the shared engine and
stalls the whole group when any member is full — so one slow consumer
backpressures its group instead of growing memory without limit.

``asyncio.Queue`` is deliberately not used: a full queue cannot accept
the terminal error a crashed engine must deliver, and the producer is
synchronous (the tick loop never awaits a put).  This stream instead
separates the two paths: :meth:`SnapshotStream.push` is a synchronous,
bound-enforced producer call, while :meth:`SnapshotStream.close` always
lands — a normal close drains the remaining items to the consumer, an
error close drops them so the typed exception surfaces immediately.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import ServiceError
from repro.runtime.result import RunResult

__all__ = ["Snapshot", "SnapshotStream"]


@dataclass(frozen=True)
class Snapshot:
    """One streamed window of a client's run.

    Attributes
    ----------
    seq:
        0-based window index for this client.
    window:
        The client's rows for the ticks recorded in this window (a
        :class:`~repro.runtime.result.RunResult`; may hold zero ticks
        when the window was shorter than the decimation stride).
        Windows concatenate with ``RunResult.concat(..., axis="time")``
        into the uninterrupted run, bit for bit.
    summary:
        ``window.summary()`` — the incremental ``run.*`` statistics
        over just this window (the streamed summary delta).
    done_steps / total_steps:
        Engine samples completed for this client after this window, and
        the client's full horizon.
    """

    seq: int
    window: RunResult
    summary: dict
    done_steps: int
    total_steps: int

    @property
    def complete(self) -> bool:
        """Whether this is the client's final window."""
        return self.done_steps >= self.total_steps


class SnapshotStream:
    """Single-producer single-consumer bounded snapshot queue.

    Parameters
    ----------
    bound:
        Maximum queued snapshots; the producer must check
        :attr:`has_space` before :meth:`push` (the tick loop stalls the
        group otherwise).
    on_space:
        Optional callback invoked when a consumer pop frees space —
        the service wires its loop wake-up here so a stalled group
        resumes as soon as the slow client catches up.
    """

    def __init__(self, bound: int,
                 on_space: Callable[[], None] | None = None) -> None:
        if bound < 1:
            raise ServiceError("stream bound must be >= 1",
                               reason="backpressure")
        self._bound = int(bound)
        self._items: deque[Snapshot] = deque()
        self._data = asyncio.Event()
        self._on_space = on_space
        self._closed = False
        self._error: BaseException | None = None

    @property
    def has_space(self) -> bool:
        """Whether one more :meth:`push` fits within the bound."""
        return len(self._items) < self._bound

    @property
    def depth(self) -> int:
        """Snapshots currently queued (bounded by ``bound``)."""
        return len(self._items)

    def push(self, snapshot: Snapshot) -> None:
        """Producer: enqueue one snapshot (synchronous, bound-enforced).

        Raises
        ------
        ServiceError
            If the stream is closed or full — both are producer-side
            invariant violations (the tick loop must check
            :attr:`has_space` first), surfaced rather than silently
            dropped.
        """
        if self._closed:
            raise ServiceError("push on a closed stream",
                               reason="backpressure")
        if not self.has_space:
            raise ServiceError(
                f"push would overrun the stream bound ({self._bound})",
                reason="backpressure")
        self._items.append(snapshot)
        self._data.set()

    def close(self, error: BaseException | None = None) -> None:
        """Terminate the stream (idempotent; always lands, even full).

        A normal close lets the consumer drain what is queued, then
        ends iteration.  An error close drops the queue so the consumer
        sees ``error`` on its very next pull.
        """
        if self._closed:
            return
        self._closed = True
        self._error = error
        if error is not None:
            self._items.clear()
        self._data.set()

    async def get(self) -> Snapshot | None:
        """Consumer: next snapshot, or None when the stream ended.

        Raises
        ------
        BaseException
            The error the stream was closed with, if any (e.g. a
            :class:`~repro.errors.SensorFault` from the shared engine).
        """
        while True:
            if self._items:
                item = self._items.popleft()
                if self._on_space is not None and not self._closed:
                    self._on_space()
                return item
            if self._closed:
                if self._error is not None:
                    raise self._error
                return None
            self._data.clear()
            await self._data.wait()
