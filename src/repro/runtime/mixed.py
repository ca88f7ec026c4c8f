"""Heterogeneous fleets: config-equivalence grouping and the MixedEngine.

The vectorized :class:`~repro.runtime.batch.BatchEngine` requires a
*structurally homogeneous* fleet — every rig the same configs modulo
seeds.  City-scale deployments are not homogeneous: meters differ in
loop rate knobs, overtemperature, drive scheme, housing class.  This
module lifts the restriction without touching the hot path:

- :func:`fleet_groups` partitions an arbitrary rig list into
  config-equivalence groups by the one rig signature
  (:func:`repro.runtime.batch._signature`) — the same rule the batch
  engine validates — preserving caller order inside each group;
- :func:`config_group_key` names a group: a hash of the one rig
  signature (configs with seeds zeroed, plus the handful of
  instance-level clocks), stable across releases;
- :class:`MixedEngine` runs each group on its own ``BatchEngine`` (in
  worker processes, one job per group, with ``workers > 1``) and
  interleaves the blocks back into caller order with the
  permutation-aware :meth:`RunResult.concat
  <repro.runtime.result.RunResult.concat>` — so every rig's trace is
  *bit-identical* to running its config group alone, while the caller
  keeps one flat fleet index.

Per-rig diversity *within* a group (resistor tolerances, calibration
constants, housing state, noise streams) rides along exactly as it
always did; only structural differences split groups.  Groups must
still share one loop rate and line clock, because the merged result
needs a single time base.

:meth:`MixedEngine.admit` lets rigs join a running engine: each rig
becomes a row of a new lane of its group's engine (see
:mod:`repro.runtime.batch`), with its own profile clock, and a new
config group can join only while the engine is at step 0.
"""

from __future__ import annotations

import hashlib
import json

from repro.errors import ConfigurationError
from repro.runtime.batch import BatchEngine, _drop_rows, _signature
from repro.runtime.result import RunResult
from repro.station.profiles import Profile
from repro.station.rig import TestRig

__all__ = ["MixedEngine", "config_group_key", "fleet_groups"]


def config_group_key(rig: TestRig) -> str:
    """Canonical config-equivalence key of one rig (a short hex hash).

    The key is a hash of the one rig signature
    (:func:`repro.runtime.batch._signature`) that decides which rigs can
    share a :class:`~repro.runtime.batch.BatchEngine`: the configs
    serialize through ``to_dict`` (sensor, monitor, controller) or
    ``repr`` (AFE, anti-alias coefficients, LPF format, PI, line), so
    the bytes of a key stay stable across releases.
    """
    (sensor, monitor, controller, rate, estimator, drive, channels, dacs,
     pis, line, *rest) = _signature(rig)
    payload = [
        sensor.to_dict(), monitor.to_dict(), controller.to_dict(), rate,
        estimator, drive,
        [[repr(afe), bit_true, adc, repr(coeffs), alpha, repr(qformat),
          *adc_scale]
         for afe, bit_true, adc, coeffs, alpha, qformat, *adc_scale
         in channels],
        dacs, [repr(pi) for pi in pis], [repr(line[0]), *line[1:]], *rest,
    ]
    blob = json.dumps(payload, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def fleet_groups(rigs: list[TestRig]) -> dict[str, list[int]]:
    """Partition a rig list into config-equivalence groups.

    Rigs group by equal signatures (the same rule
    :class:`~repro.runtime.batch.BatchEngine` validates), and each group
    is keyed by its first rig's :func:`config_group_key`, hashed once.
    Returns an ordered mapping of key to caller indices, in
    first-occurrence order; the indices inside each group keep caller
    order.  A homogeneous fleet yields exactly one group.

    Raises
    ------
    ConfigurationError
        If the list is empty.
    """
    if not rigs:
        raise ConfigurationError("need at least one rig to group")
    # A scan, not a dict: MAFConfig holds an unhashable Membrane.
    signatures: list[tuple] = []
    members: list[list[int]] = []
    for i, rig in enumerate(rigs):
        sig = _signature(rig)
        for known, positions in zip(signatures, members):
            if known == sig:
                positions.append(i)
                break
        else:
            signatures.append(sig)
            members.append([i])
    groups: dict[str, list[int]] = {}
    for positions in members:
        key = config_group_key(rigs[positions[0]])
        # Two signatures that hash alike pool their rigs rather than
        # overwrite each other; the pooled group's engine refuses it.
        groups[key] = sorted(groups.get(key, []) + positions)
    return groups


class _MixGroup:
    """One config-equivalence group inside a :class:`MixedEngine`: its
    key, its caller positions and the engine that advances it (a
    :class:`~repro.runtime.batch.BatchEngine`, or a pickled parallel
    job)."""

    def __init__(self, key: str, positions: list[int],
                 engine: BatchEngine) -> None:
        self.key = key
        self.positions = positions
        self.engine = engine


class MixedEngine:
    """Group-by-config sub-batching over an arbitrary rig list.

    Partitions the fleet with :func:`fleet_groups`, runs each group on
    its own :class:`~repro.runtime.batch.BatchEngine`, and interleaves
    the group blocks back into caller order with the permutation-aware
    fleet-axis :meth:`RunResult.concat
    <repro.runtime.result.RunResult.concat>`.  Every rig's trace is
    bit-identical to running its config group alone; row ``i`` of every
    result is caller rig ``i``.  The merged result carries per-row
    :meth:`~repro.runtime.result.RunResult.provenance` of
    ``(group_key, row_in_group)`` pairs.

    This is the one engine every fleet caller builds —
    :class:`~repro.runtime.Session` (which keeps one, rewound, for all
    its runs, durable ones included), :func:`repro.runtime.run_durable`
    callers, the streaming fleet service and
    :func:`repro.station.campaign.run_campaign` (one per scenario leg)
    — whether the fleet is homogeneous, mixed or run in parallel.
    The surface mirrors ``BatchEngine`` (:meth:`run`, :meth:`advance`,
    :meth:`drop`, :meth:`admit`, :meth:`rewind`, :attr:`offset`), and
    :meth:`run` is exactly one :meth:`advance` over the whole profile.
    Like the batch engine, a mixed engine *consumes* its rigs.

    Parameters
    ----------
    rigs:
        Any rig list; structural diversity is handled by grouping.
        Groups must share one loop rate and line clock (the merged
        result needs a single time base).
    workers:
        With ``workers > 1`` and at least two config groups, each group
        is one job (:mod:`repro.runtime.parallel`): every :meth:`run`
        and :meth:`advance` window ships the groups' pickled engines to
        worker processes, at most ``workers`` at once.  A one-group
        fleet is one job, so it runs serially in-process whatever
        ``workers`` says, as do ``None`` (default) and 1.  Bit-identical
        for any worker count, and :meth:`rewind` works either way.

    Raises
    ------
    ConfigurationError
        If the fleet is empty, ``workers`` is not positive, a group
        trips the batch engine's own validation, or the groups do not
        share a loop rate / line start state
        (``reason="heterogeneous"``).
    """

    #: What :meth:`rewind` restores; None on an engine restored from a
    #: pickle, which leaves it out.
    _step0 = None
    #: The retry and watchdog budget of a ``workers > 1`` window: each
    #: job is re-submitted once after a worker failure, then falls back
    #: in-process, and no attempt has a timeout.
    #: :class:`~repro.runtime.parallel.ShardedEngine` takes both as
    #: arguments.
    _max_retries = 1
    _timeout_s = None

    def __init__(self, rigs: list[TestRig],
                 workers: int | None = None) -> None:
        if workers is not None and int(workers) < 1:
            raise ConfigurationError("workers must be a positive integer")
        self._groups = [
            _MixGroup(key, positions,
                      BatchEngine([rigs[i] for i in positions]))
            for key, positions in fleet_groups(rigs).items()
        ]
        self._n = len(rigs)
        self._offset = 0
        # The groups and caller rows rewind() restores after drops.
        self._step0 = ([(g, g.positions) for g in self._groups], self._n)
        g0 = self._groups[0]
        # The shared loop period: run() needs it even once every rig
        # has been dropped, so advance() can refuse with a typed error.
        self._dt = g0.engine._dt
        # The line clock every group (and every admitted one) starts
        # from.
        self._line_time = g0.engine._line_time
        for g in self._groups[1:]:
            if g.engine._dt != self._dt:
                raise ConfigurationError(
                    f"config groups {g0.key} and {g.key} differ in loop "
                    f"rate; a mixed fleet needs one shared time base",
                    reason="heterogeneous")
            if g.engine._line_time != self._line_time:
                raise ConfigurationError(
                    f"config groups {g0.key} and {g.key} differ in line "
                    f"start time; a mixed fleet needs one shared clock",
                    reason="heterogeneous")
        # Worker processes a window may use: one per group at most, and
        # a one-group fleet stays in-process.
        self._workers = min(int(workers or 1), len(self._groups))
        if self._workers > 1:
            from repro.runtime.parallel import _Job
            for g in self._groups:
                g.engine = _Job(g.engine, [rigs[i] for i in g.positions])

    # -- introspection -------------------------------------------------------

    @property
    def n_monitors(self) -> int:
        """Rigs currently in the fleet (caller rows of every result)."""
        return self._n

    @property
    def groups(self) -> list[tuple[str, tuple[int, ...]]]:
        """``(group_key, caller_positions)`` per config group, in
        first-occurrence order — the partition provenance."""
        return [(g.key, tuple(g.positions)) for g in self._groups]

    @property
    def offset(self) -> int:
        """Samples already advanced (shared by every group engine)."""
        return self._offset

    @property
    def dt_s(self) -> float:
        """The loop period every group shares [s]."""
        return self._dt

    # -- execution -----------------------------------------------------------

    def _merge(self, blocks: list[RunResult]) -> RunResult:
        """Interleave group blocks back into caller order."""
        if len(self._groups) == 1 and \
                self._groups[0].positions == list(range(self._n)):
            # Identity layout: the single group *is* the fleet — hand
            # its block through untouched (byte-identical fast path).
            block = blocks[0]
            block._provenance = [(self._groups[0].key, r)
                                 for r in range(block.n_monitors)]
            return block
        merged = RunResult.concat(
            blocks, axis="fleet",
            indices=[g.positions for g in self._groups])
        merged._provenance = [
            (self._groups[p].key, r) for p, r in merged.provenance()]
        return merged

    def run(self, profile: Profile, record_every_n: int = 20) -> RunResult:
        """Execute a profile over the whole mixed fleet.

        Exactly ``advance(profile, steps)`` for the profile's full step
        count: every group advances in-process, or as a worker job if
        the constructor fixed ``workers``, from the current
        :attr:`offset`.  Bit-identical for any worker count.

        Raises
        ------
        ConfigurationError
            On an empty profile, non-positive decimation, or if every
            rig has been :meth:`drop`-ped.
        SensorFault
            Propagated from any group (membrane burst, overpressure).
        """
        steps = int(round(profile.duration_s / self._dt))
        if steps < 1:
            raise ConfigurationError("profile shorter than one loop tick")
        return self.advance(profile, steps, record_every_n)

    def advance(self, profile: Profile, steps: int,
                record_every_n: int = 20) -> RunResult:
        """Advance every group ``steps`` samples from :attr:`offset`.

        The incremental form of :meth:`run`, mirroring
        :meth:`BatchEngine.advance
        <repro.runtime.batch.BatchEngine.advance>`: the same absolute
        step offsets, the same bit-exact window-slicing contract, with
        the window interleaved back into caller order.

        Raises
        ------
        ConfigurationError
            On a non-positive step count or decimation, or if every rig
            has been :meth:`drop`-ped.
        SensorFault
            Propagated from any group.
        """
        if not self._groups:
            raise ConfigurationError("every rig was dropped from the engine")
        if self._workers > 1:
            from repro.runtime.parallel import advance_jobs
            blocks = advance_jobs(
                [g.engine for g in self._groups], profile, steps,
                record_every_n, workers=self._workers,
                max_retries=self._max_retries, timeout_s=self._timeout_s)
        else:
            blocks = [g.engine.advance(profile, steps, record_every_n)
                      for g in self._groups]
        self._offset += steps
        return self._merge(blocks)

    def drop(self, indices: list[int]) -> None:
        """Remove caller rows from the fleet between advances.

        Each index is routed to its group's
        :meth:`BatchEngine.drop <repro.runtime.batch.BatchEngine.drop>`
        (inside the pickled engine for a parallel job; survivor bits
        untouched either way); surviving caller positions shift
        left to fill the gaps, exactly as a flat engine's would, and
        emptied groups are discarded.

        Raises
        ------
        ConfigurationError
            On an out-of-range or duplicated index.
        """
        drop_set = _drop_rows(indices, self._n)
        if not drop_set:
            return
        keep = [j for j in range(self._n) if j not in drop_set]
        remap = {old: new for new, old in enumerate(keep)}
        survivors = []
        for g in self._groups:
            local = [r for r, pos in enumerate(g.positions)
                     if pos in drop_set]
            if local:
                g.engine.drop(local)
            g.positions = [remap[pos] for pos in g.positions
                           if pos in remap]
            if g.positions:
                survivors.append(g)
        self._groups = survivors
        self._n = len(keep)

    def admit(self, rigs: list[TestRig]) -> None:
        """Append rigs to the fleet as caller rows joining at :attr:`offset`.

        The rigs become the last caller rows, in order.  Each config
        group's rigs join that group's engine as a lane
        (:meth:`BatchEngine.admit
        <repro.runtime.batch.BatchEngine.admit>`, inside the blob for a
        parallel job), so every joined row is *bit-identical* to a run
        of its rigs alone from their own step 0; rows keep their
        traces, and each lane its own time axis
        (:meth:`RunResult.take <repro.runtime.result.RunResult.take>`).
        A config group new to the engine can join only at step 0, as
        an engine of its own (in-process when this engine runs in
        process).  Either every rig joins or none does.

        Raises
        ------
        ConfigurationError
            ``reason="admit"`` for a new config group past step 0 or a
            rig at another drive phase than its group's engine; on an
            empty rig list.
        SensorFault
            If a rig's sensor is already failed.
        """
        rigs = list(rigs)
        by_key = {g.key: g for g in self._groups}
        joins = []
        for key, local in fleet_groups(rigs).items():
            group_rigs = [rigs[i] for i in local]
            group = by_key.get(key)
            if group is None:
                if self._offset:
                    raise ConfigurationError(
                        f"config group {key} is new to this engine; a new "
                        f"group can only join at step 0", reason="admit")
                engine = BatchEngine(group_rigs)
                if (engine._dt, engine._line_time) != (self._dt,
                                                       self._line_time):
                    raise ConfigurationError(
                        f"config group {key} differs in loop rate or line "
                        f"start time; a mixed fleet needs one shared clock",
                        reason="heterogeneous")
                if self._workers > 1:
                    from repro.runtime.parallel import _Job
                    engine = _Job(engine, group_rigs)
            else:
                group.engine.check_admit(group_rigs)
                engine = None
            joins.append((key, local, group, group_rigs, engine))
        for key, local, group, group_rigs, engine in joins:
            positions = [self._n + i for i in local]
            if group is None:
                self._groups.append(_MixGroup(key, positions, engine))
            else:
                group.engine.admit(group_rigs)
                group.positions = group.positions + positions
        self._n += len(rigs)

    def rewind(self) -> None:
        """Return every group to the state it was built with.

        Each group's :meth:`BatchEngine.rewind
        <repro.runtime.batch.BatchEngine.rewind>` (or, for a parallel
        job, its step-0 blob) is restored, groups and
        caller rows removed by :meth:`drop` come back, and
        :attr:`offset` is 0 again: the next :meth:`run` is
        byte-identical to one on a new engine over freshly built rigs.

        Raises
        ------
        ConfigurationError
            (``reason="rewind"``) on an engine restored from a pickle.
            Nothing is rewound then.
        """
        if self._step0 is None:
            raise ConfigurationError(
                "this engine was restored from a pickle and has no "
                "step-0 state to rewind to", reason="rewind")
        groups, n = self._step0
        for g, positions in groups:
            g.engine.rewind()
            g.positions = positions
        self._groups = [g for g, _ in groups]
        self._n = n
        self._offset = 0

    def __getstate__(self) -> dict:
        # Checkpoints leave the step-0 state out: it serves in-process
        # rewinds only.
        return {k: v for k, v in vars(self).items() if k != "_step0"}

    def close(self) -> None:
        """End the engine's life (idempotent).

        No worker outlives a window, so there is nothing to release;
        this exists so engine owners (``WindowedRun``, the fleet
        service) can end every engine the same way.
        """

    def __enter__(self) -> "MixedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
