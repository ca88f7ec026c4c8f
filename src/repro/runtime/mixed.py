"""Heterogeneous fleets: config-equivalence grouping and the MixedEngine.

The vectorized :class:`~repro.runtime.batch.BatchEngine` requires a
*structurally homogeneous* fleet — every rig the same configs modulo
seeds.  City-scale deployments are not homogeneous: meters differ in
loop rate knobs, overtemperature, drive scheme, housing class.  This
module lifts the restriction without touching the hot path:

- :func:`config_group_key` condenses everything the batch engine's
  homogeneity validation compares into one canonical hash (built from
  the configs' ``to_dict`` forms with seeds zeroed, plus the handful of
  instance-level clocks the engine also checks);
- :func:`fleet_groups` partitions an arbitrary rig list into
  config-equivalence groups by that key, preserving caller order
  inside each group;
- :class:`MixedEngine` runs each group on its own ``BatchEngine`` and
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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from repro.errors import ConfigurationError
from repro.conditioning.drive import PulsedDrive
from repro.runtime.batch import BatchEngine
from repro.runtime.result import RunResult
from repro.station.profiles import Profile
from repro.station.rig import TestRig

__all__ = ["MixedEngine", "config_group_key", "fleet_groups"]


def config_group_key(rig: TestRig) -> str:
    """Canonical config-equivalence key of one rig (a short hex hash).

    Two rigs with equal keys can share one
    :class:`~repro.runtime.batch.BatchEngine`: the key covers every
    quantity the engine's homogeneity validation compares — the sensor
    / monitor / controller configs (``to_dict`` with seeds zeroed), the
    platform loop rate and channel configuration, drive scheme and
    phase, PI configs, the shared line plant (config modulo seed, the
    turbulence floor/length/min-speed, bulk start state), the reference
    meter parameters, and the resistor materials.  Realized per-rig
    values (trims, calibration constants, housing state, turbulence
    intensity, noise streams) are deliberately *excluded*: they are the
    in-group diversity the engine already carries per monitor.
    """
    mon = rig.monitor
    sen = mon.sensor
    ctrl = mon.controller
    est = mon.estimator
    plat = mon.platform
    line = rig.line
    ref = rig.reference
    drive = ctrl.drive
    drive_sig: list = [type(drive).__name__]
    if isinstance(drive, PulsedDrive):
        drive_sig += [drive.period_s, drive.duty, drive.blanking_s,
                      drive._t]
    channels = []
    for ch in plat.channels[:2]:
        channels.append([
            repr(ch.config.afe),
            bool(ch.config.bit_true_adc),
            type(ch.adc).__name__,
            repr(ch.anti_alias._coeffs),
            ch.digital_lpf.alpha,
            repr(ch.digital_lpf.qformat),
            ch.adc._thermal_rms_v, ch.adc._lsb_v,
            ch.adc._min_code, ch.adc._max_code,
        ])
    dacs = [[dac.settling_time_s, dac.lsb_v, dac.max_code]
            for dac in (plat.supply_dac_a, plat.supply_dac_b)]
    noise = line._noise.config
    payload = [
        replace(sen.config, seed=0).to_dict(),
        mon.config.to_dict(),
        ctrl.config.to_dict(),
        plat.loop_rate_hz,
        [bool(est.config.use_direction),
         bool(est.config.temperature_compensation), bool(est._primed)],
        drive_sig,
        channels,
        dacs,
        [repr(ctrl.pi_a.config), repr(ctrl.pi_b.config)],
        [repr(replace(line.config, seed=0)),
         noise.floor_mps, noise.integral_length_m, noise.min_speed_mps,
         line._speed, line._pressure, line._temperature, line._time_s],
        [type(ref).__name__,
         getattr(ref, "full_scale_mps", None),
         getattr(ref, "accuracy_of_reading", None),
         getattr(ref, "resolution_fraction_fs", None),
         getattr(ref, "response_time_s", None)],
        [[h.material.tcr_per_k, h.reference_temperature_k]
         for h in (sen.heater_a, sen.heater_b)],
        [sen.reference.material.tcr_per_k,
         sen.reference.reference_temperature_k, sen.reference.nominal_ohm],
        [sen.bridge_a.r_series_ohm, sen.bridge_b.r_series_ohm],
    ]
    blob = json.dumps(payload, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def fleet_groups(rigs: list[TestRig]) -> dict[str, list[int]]:
    """Partition a rig list into config-equivalence groups.

    Returns an ordered mapping of :func:`config_group_key` to the
    caller indices carrying that key, in first-occurrence order; the
    indices inside each group keep caller order.  A homogeneous fleet
    yields exactly one group.

    Raises
    ------
    ConfigurationError
        If the list is empty.
    """
    if not rigs:
        raise ConfigurationError("need at least one rig to group")
    groups: dict[str, list[int]] = {}
    for i, rig in enumerate(rigs):
        groups.setdefault(config_group_key(rig), []).append(i)
    return groups


class _MixGroup:
    """One config-equivalence group inside a :class:`MixedEngine`."""

    __slots__ = ("key", "positions", "rigs", "engine", "dt", "line_time")

    def __init__(self, key: str, positions: list[int], rigs: list[TestRig],
                 chunk_size: int, numerics: str,
                 workers: int | None) -> None:
        self.key = key
        self.positions = positions
        self.rigs = rigs
        # The probe validates homogeneity and pins the group's time
        # base either way; it becomes the engine on the serial path.
        probe = BatchEngine(rigs, chunk_size=chunk_size, numerics=numerics)
        self.dt = probe._dt
        self.line_time = probe._line_time
        effective = 0 if workers is None else min(int(workers), len(rigs))
        if effective > 1:
            from repro.runtime.parallel import ShardedEngine
            self.engine = ShardedEngine(rigs, workers=effective,
                                        chunk_size=chunk_size,
                                        numerics=numerics)
        else:
            self.engine = probe


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

    The incremental surface mirrors ``BatchEngine`` (:meth:`advance`,
    :meth:`drop`, :attr:`offset`), so the streaming fleet service can
    host mixed cohorts on exactly the contract it already leans on.
    Like the batch engine, a mixed engine *consumes* its rigs.

    Parameters
    ----------
    rigs:
        Any rig list; structural diversity is handled by grouping.
        Groups must share one loop rate and line clock (the merged
        result needs a single time base).
    chunk_size / numerics:
        Forwarded to every group's ``BatchEngine``.
    workers:
        With ``workers > 1`` each group large enough to shard runs on
        its own :class:`~repro.runtime.parallel.ShardedEngine`
        (``min(workers, group size)`` shards), *including* the incremental
        :meth:`advance`/:meth:`drop` surface — this is how the fleet
        service and durable runs parallelize cohort ticks.  Groups of
        one rig stay on a plain ``BatchEngine``.  Bit-identical either
        way.

    Raises
    ------
    ConfigurationError
        If the fleet is empty, a group trips the batch engine's own
        validation, or the groups do not share a loop rate / line
        start state (``reason="heterogeneous"``).
    """

    def __init__(self, rigs: list[TestRig], chunk_size: int = 1024,
                 numerics: str = "exact",
                 workers: int | None = None) -> None:
        grouped = fleet_groups(rigs)
        self._workers = None if workers is None else int(workers)
        self._groups = [
            _MixGroup(key, positions, [rigs[i] for i in positions],
                      chunk_size, numerics, self._workers)
            for key, positions in grouped.items()
        ]
        self._n = len(rigs)
        self._chunk = int(chunk_size)
        self._numerics = self._groups[0].engine.numerics
        self._offset = 0
        self._spent = False
        g0 = self._groups[0]
        for g in self._groups[1:]:
            if g.dt != g0.dt:
                raise ConfigurationError(
                    f"config groups {g0.key} and {g.key} differ in loop "
                    f"rate; a mixed fleet needs one shared time base",
                    reason="heterogeneous")
            if g.line_time != g0.line_time:
                raise ConfigurationError(
                    f"config groups {g0.key} and {g.key} differ in line "
                    f"start time; a mixed fleet needs one shared clock",
                    reason="heterogeneous")

    # -- introspection -------------------------------------------------------

    @property
    def n_monitors(self) -> int:
        """Rigs currently in the fleet (caller rows of every result)."""
        return self._n

    @property
    def numerics(self) -> str:
        """The resolved numerics mode shared by every group engine."""
        return self._numerics

    @property
    def groups(self) -> list[tuple[str, tuple[int, ...]]]:
        """``(group_key, caller_positions)`` per config group, in
        first-occurrence order — the partition provenance."""
        return [(g.key, tuple(g.positions)) for g in self._groups]

    @property
    def group_keys(self) -> list[str]:
        """Each caller row's config-group key, in caller order."""
        keys = [""] * self._n
        for g in self._groups:
            for pos in g.positions:
                keys[pos] = g.key
        return keys

    @property
    def offset(self) -> int:
        """Samples already advanced (shared by every group engine)."""
        return self._offset

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

    def run(self, profile: Profile, record_every_n: int = 20,
            workers: int | None = None) -> RunResult:
        """Execute a profile over the whole mixed fleet.

        With ``workers`` left at None (or 1) every group advances on
        the engine it was built with — serial ``BatchEngine`` groups by
        default, sharded groups if the constructor fixed ``workers``.
        Passing ``workers > 1`` *here* is the legacy one-shot spelling:
        each group is sharded within itself on a fresh
        :class:`~repro.runtime.parallel.ShardedEngine` (capped at the
        group size), and the engine is consumed —
        further :meth:`run`/:meth:`advance` calls are refused.  Every
        path is bit-identical for any worker count.

        Raises
        ------
        ConfigurationError
            On an empty profile, non-positive decimation, a consumed
            engine, or a one-shot ``workers`` on an engine whose
            workers were already fixed at construction.
        SensorFault
            Propagated from any group (membrane burst, overpressure).
        """
        if workers is None or workers == 1:
            dt = self._groups[0].dt if self._groups else 1.0
            steps = int(round(profile.duration_s / dt))
            if steps < 1:
                raise ConfigurationError("profile shorter than one loop tick")
            return self.advance(profile, steps, record_every_n)
        if self._workers is not None and self._workers != 1:
            raise ConfigurationError(
                "workers were fixed at construction; run() without a "
                "workers override")
        self._require_live()
        from repro.runtime.parallel import ShardedEngine
        self._spent = True
        blocks = [
            ShardedEngine(g.rigs, workers=min(int(workers), len(g.rigs)),
                          chunk_size=self._chunk,
                          numerics=self._numerics).run(
                profile, record_every_n=record_every_n)
            for g in self._groups
        ]
        return self._merge(blocks)

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
            On a non-positive step count or decimation, a consumed
            engine, or if every rig has been :meth:`drop`-ped.
        SensorFault
            Propagated from any group.
        """
        self._require_live()
        if not self._groups:
            raise ConfigurationError("every rig was dropped from the engine")
        blocks = [g.engine.advance(profile, steps, record_every_n)
                  for g in self._groups]
        self._offset = self._groups[0].engine.offset
        return self._merge(blocks)

    def drop(self, indices: list[int]) -> None:
        """Remove caller rows from the fleet between advances.

        Each index is routed to its group's
        :meth:`BatchEngine.drop <repro.runtime.batch.BatchEngine.drop>`
        (survivor bits untouched); surviving caller positions shift
        left to fill the gaps, exactly as a flat engine's would, and
        emptied groups are discarded.

        Raises
        ------
        ConfigurationError
            On an out-of-range or duplicated index, or a consumed
            engine.
        """
        self._require_live()
        drop_set = set()
        for j in indices:
            j = int(j)
            if not 0 <= j < self._n:
                raise ConfigurationError(
                    f"drop index {j} out of range for fleet of {self._n}")
            if j in drop_set:
                raise ConfigurationError(f"drop index {j} given twice")
            drop_set.add(j)
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
                g.rigs = [rig for r, rig in enumerate(g.rigs)
                          if r not in set(local)]
            g.positions = [remap[pos] for pos in g.positions
                           if pos in remap]
            if g.positions:
                survivors.append(g)
        self._groups = survivors
        self._n = len(keep)

    def close(self) -> None:
        """Close every group engine that has a lifecycle (idempotent).

        Sharded groups are closed (:meth:`ShardedEngine.close
        <repro.runtime.parallel.ShardedEngine.close>`); serial groups
        have nothing to close.  The fleet service calls this when a
        cohort finishes, fails or is discarded.
        """
        for g in self._groups:
            close = getattr(g.engine, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "MixedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _require_live(self) -> None:
        """Refuse use after the one-shot workers path consumed the rigs."""
        if self._spent:
            raise ConfigurationError(
                "this MixedEngine was consumed by a workers run; build a "
                "fresh one (or use repro.runtime.Session, which "
                "re-materializes rigs per run)")
