"""Batched fleet runtime: vectorized engine + session lifecycle.

``repro.runtime`` is the fleet-scale front door of the reproduction:

- :class:`Session` / :class:`MonitorHandle` — the
  ``open() -> calibrate() -> run(profile) -> close()`` lifecycle that
  owns N calibrated monitoring points,
- :class:`BatchEngine` — the chunk-vectorized engine advancing N
  monitors x K samples per call, bit-identical to the scalar loops it
  replaces,
- :class:`ShardedEngine` (:mod:`repro.runtime.parallel`) — the same
  fleet's config groups run as jobs in worker processes, bit-identical
  to the serial engine for any worker count, with bounded retry and
  serial fallback on worker failure; its workers live only for the
  call that started them,
- :class:`RunResult` — stacked ``(N, M)`` traces with scalar
  ``RigRecord`` rehydration and block concatenation,
- :class:`MixedEngine` (:mod:`repro.runtime.mixed`) — group-by-config
  sub-batching for *structurally heterogeneous* fleets: rigs are
  partitioned into config-equivalence groups by the one rig signature
  that also decides which rigs a ``BatchEngine`` accepts
  (:func:`fleet_groups`; :func:`config_group_key` is a hash of the one
  rig signature), each group runs on its own ``BatchEngine``, and the
  blocks interleave back into caller order bit-identically,
- :class:`FleetSpec` / :class:`RigSpec` (:mod:`repro.runtime.spec`) —
  the one declarative fleet description (per-rig config + count + seed
  + scenario) accepted by ``Session``,
  ``characterize_meter_pool``, the service facade and the CLI,
- :func:`save_checkpoint` / :func:`load_checkpoint` /
  :class:`WindowedRun` / :func:`run_durable`
  (:mod:`repro.runtime.checkpoint`) — bit-exact engine checkpoints,
  the one windowed-run driver behind durable runs, campaigns and
  service cohorts, and the durable-run loop behind
  ``Session(checkpoint_dir=...)`` (see ``docs/durability.md``).

The scalar classes (`TestRig`, `CTAController`, ...) remain the
reference implementation; the parity tests hold all three paths to
bit-identical outputs on shared seeds.
"""

from repro.runtime.batch import BatchEngine
from repro.runtime.checkpoint import (CHECKPOINT_FORMAT_VERSION, Checkpoint,
                                      WindowedRun, engine_kind,
                                      load_checkpoint, run_durable,
                                      save_checkpoint)
from repro.runtime.mixed import MixedEngine, config_group_key, fleet_groups
from repro.runtime.parallel import ShardedEngine
from repro.runtime.result import RunResult
from repro.runtime.session import MonitorHandle, Session
from repro.runtime.spec import FleetSpec, RigSpec

__all__ = ["BatchEngine", "RunResult", "Session",
           "MonitorHandle", "ShardedEngine",
           "MixedEngine", "config_group_key", "fleet_groups",
           "FleetSpec", "RigSpec",
           "Checkpoint", "save_checkpoint", "load_checkpoint",
           "WindowedRun", "run_durable", "engine_kind",
           "CHECKPOINT_FORMAT_VERSION"]
