"""The single client-facing entry point: ``repro.connect`` / ``repro.run``.

This module is the one documented client front door over the fleet
runtime (``TestRig.run`` stays the scalar reference loop for one rig):

- :func:`run` — synchronous one-shot: build a session, calibrate, run,
  return the result.  Covers the common "give me the traces" case with
  one call and the unified keyword surface.
- :func:`connect` — the streaming path: returns a
  :class:`ServiceClient` wrapping a resident (or caller-provided)
  :class:`~repro.service.service.FleetService`, against which clients
  ``attach``/``detach`` and consume incremental snapshots.

Both are re-exported from the top-level ``repro`` package and asserted
single-source by the API-quality tests.
"""

from __future__ import annotations

from repro.errors import ServiceError
from repro.runtime.result import RunResult
from repro.runtime.session import Session
from repro.service.service import ClientSession, FleetService
from repro.station.profiles import Profile

__all__ = ["ServiceClient", "connect", "run"]


def run(profile: Profile, *, fleet=None,
        workers: int | None = None, numerics: str = "exact",
        record_every_n: int = 20) -> RunResult:
    """One-shot fleet run: session lifecycle in a single call.

    Equivalent to building a :class:`~repro.runtime.Session`,
    calibrating, running the profile and closing — the recommended
    entry point when a resident service is overkill::

        import repro

        result = repro.run(repro.staircase([0.0, 50.0, 120.0],
                                           dwell_s=4.0),
                           fleet=repro.FleetSpec.homogeneous(8, seed=7))

    The fleet is described by ``fleet=`` (a
    :class:`~repro.runtime.FleetSpec`, possibly mixed — a structurally
    heterogeneous fleet sub-batches per config group, bit-identical per
    rig to running its group alone).  All other keywords mirror
    :meth:`repro.runtime.Session.run` (``record_every_n``,
    ``workers``, ``numerics``).
    Traces are bit-identical to what a
    :meth:`~repro.service.service.FleetService` client streaming the
    same config/seed/profile would stitch together.

    Raises
    ------
    ConfigurationError
        For invalid knobs (propagated from the session layer), and for
        a scenario-bearing spec (campaigns belong to
        :func:`repro.station.run_campaign`).
    """
    with Session(fleet=fleet) as session:
        session.calibrate()
        return session.run(profile, workers=workers, numerics=numerics,
                           record_every_n=record_every_n)


class ServiceClient:
    """Client-side handle on a fleet service (owned or shared).

    Usage::

        async with repro.connect() as client:
            session = await client.attach(
                profile, fleet=repro.FleetSpec.homogeneous(4, seed=7))
            async for snap in session.snapshots():
                ...
            result = await session.result()

    When constructed without an explicit service the client owns a
    private in-process :class:`~repro.service.service.FleetService`,
    started lazily on first use and stopped by ``close()`` / leaving
    the ``async with`` block.  Pass ``service=`` to share a resident
    service across clients — lifecycle then stays with the caller.
    """

    def __init__(self, service: FleetService | None = None,
                 **service_kwargs) -> None:
        if service is not None and service_kwargs:
            raise ServiceError(
                "pass a service or service kwargs, not both")
        self._service = service if service is not None \
            else FleetService(**service_kwargs)
        self._owns = service is None

    @property
    def service(self) -> FleetService:
        """The underlying fleet service."""
        return self._service

    async def __aenter__(self) -> "ServiceClient":
        await self._service.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def attach(self, profile: Profile, **kwargs) -> ClientSession:
        """Attach a run to the service (starting it if this client owns
        an idle one); see :meth:`FleetService.attach` for parameters."""
        if self._owns and not self._service.running:
            await self._service.start()
        return await self._service.attach(profile, **kwargs)

    async def run(self, profile: Profile, **kwargs) -> RunResult:
        """Attach, stream to completion, and return the final result.

        The streaming equivalent of module-level :func:`run` — same
        bit-exact traces — for callers already inside an event loop.
        The snapshot stream is drained (and discarded) on the caller's
        behalf: the service only ticks a cohort while every member's
        bounded stream has space, so awaiting the result without a
        consumer would stall any run longer than
        ``max_pending * tick_steps`` samples.
        """
        session = await self.attach(profile, **kwargs)
        async for _ in session.snapshots():
            pass
        return await session.result()

    async def close(self) -> None:
        """Stop the service if this client owns it (else a no-op)."""
        if self._owns:
            await self._service.stop()


def connect(service: FleetService | None = None,
            **service_kwargs) -> ServiceClient:
    """Open a client on a fleet service; the streaming entry point.

    With no arguments the client owns a private in-process
    :class:`~repro.service.service.FleetService` (service knobs —
    ``tick_steps``, ``max_pending``, ``workers`` and the rest — may
    be passed through); with ``service=`` it wraps a shared resident service
    without taking over its lifecycle.

    Raises
    ------
    ServiceError
        If both a service and service kwargs are given.
    """
    return ServiceClient(service, **service_kwargs)
