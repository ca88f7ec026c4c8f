"""Async streaming fleet service: many clients, shared engine ticks.

The runtime's one-shot ``Session.run`` answers "run this profile, hand
me the traces"; this package answers the deployment-shaped question —
many concurrent clients, each with its own fleet, seed and horizon,
monitored continuously.  A resident :class:`FleetService` multiplexes
attached clients onto shared :class:`~repro.runtime.batch.BatchEngine`
tick slices (grouping compatible configurations into cohorts), streams
each client incremental :class:`~repro.service.streams.Snapshot`
windows through bounded backpressured queues, and finalizes results —
full-horizon or detached-early partials — bit-identical to a standalone
``Session.run`` of the same config/seed/horizon.

Client-facing entry points (re-exported from the top-level ``repro``
package): :func:`~repro.service.facade.connect` for streaming,
:func:`~repro.service.facade.run` for one-shot runs.  See
``docs/service.md`` for the architecture and the parity guarantees.

Durability: a service built with ``checkpoint_dir=`` snapshots every
cohort after each tick; after a process death
:func:`recover_cohorts` salvages the orphans and finishes their runs
bit-identically (see ``docs/durability.md``).
"""

from repro.service.facade import ServiceClient, connect, run
from repro.service.service import (ClientSession, FleetService,
                                   RecoveredCohort, recover_cohorts)
from repro.service.streams import Snapshot, SnapshotStream

__all__ = [
    "FleetService",
    "ClientSession",
    "RecoveredCohort",
    "ServiceClient",
    "Snapshot",
    "SnapshotStream",
    "connect",
    "recover_cohorts",
    "run",
]
