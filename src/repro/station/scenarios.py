"""Canned experimental setups.

:func:`vinci_station` reproduces the paper's test site parameters;
:func:`build_calibrated_monitor` is the one-call entry point used by the
examples and every system bench: it builds a die, a platform and a CTA
loop, runs the §4 calibration campaign against the Promag 50, and
returns a ready :class:`~repro.conditioning.monitor.WaterFlowMonitor`.

Seeds are plumbed through :class:`numpy.random.SeedSequence`: the single
``seed`` argument spawns independent child streams for the die, the
calibration bench, and the returned rig, so no two components share (or
collide on) a raw integer seed.

A build is two steps: resolving the (fitted calibration, post-campaign
sensor snapshot) *record*, and assembling a fresh rig from it — a fresh
sensor from the same config and seed with the snapshot restored, which
is bit-identical to the sensor the campaign left behind.  Records are
memoized in a small process-wide LRU keyed by everything that
determines them, so repeat builds skip the campaign; builds with a
caller-owned ``housing`` bypass it — the housing carries mutable state
the cache must not alias.  A calibrated :class:`repro.runtime.Session`
keeps its own fleet's records and assembles its runs' rigs from them,
so it never depends on the LRU after ``calibrate()``.

Underneath the LRU sits the optional disk-backed
:class:`repro.store.ArtifactStore` (``store=`` argument, or the
process-wide default from :func:`repro.store.get_default_store` /
``REPRO_STORE``): an LRU miss first consults the store — keyed by the
canonical hash of the sensor config's ``to_dict`` plus the build knobs
— and only runs the §4 campaign when the store misses too, publishing
the artifact for other workers and future processes.  Restoring from
the store is bit-identical to a fresh campaign: the same
(calibration, sensor-state snapshot) pair the LRU holds round-trips
through pickle exactly.

A fleet resolves its records together (``Session.calibrate``,
``FleetSpec.materialize``): every build looks in the LRU and the store
in fleet order, and the misses whose calibration rigs share a
signature and a setpoint schedule run their campaigns as one
:class:`~repro.runtime.BatchEngine`, bit-identical to running them one
by one (:func:`repro.station.rig.run_calibration_batch`).  A single
build, a caller-owned housing, ``use_cache=False`` and bit-true ADCs
keep the scalar campaign.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.baselines.promag import Promag50
from repro.errors import ConfigurationError
from repro.observability import get_registry, get_tracer
from repro.conditioning.calibration import FlowCalibration
from repro.conditioning.cta import CTAConfig, CTAController
from repro.conditioning.monitor import MonitorConfig, WaterFlowMonitor
from repro.isif.platform import ISIFPlatform
from repro.physics.kings_law import KingsLaw
from repro.sensor.maf import MAFConfig, MAFSensor
from repro.sensor.packaging import SensorHousing
from repro.station.line import LineConfig, WaterLine
from repro.state import load_state, state_of
from repro.station.rig import TestRig, run_calibration, run_calibration_batch
from repro.store import canonical_key, get_default_store

__all__ = ["CalibratedSetup", "vinci_station", "build_calibrated_monitor",
           "clear_calibration_cache", "calibration_cache_stats",
           "DEFAULT_CALIBRATION_SPEEDS_CMPS"]

#: Default calibration campaign: zero (direction offset + King A) plus a
#: geometric ladder over the paper's 0-250 cm/s range.
DEFAULT_CALIBRATION_SPEEDS_CMPS = [0.0, 10.0, 25.0, 50.0, 90.0, 140.0, 200.0, 250.0]


def _child_seed(sequence: np.random.SeedSequence) -> int:
    """Collapse a spawned SeedSequence into one plain integer seed."""
    return int(sequence.generate_state(1)[0])


def vinci_station(seed: int = 2024) -> WaterLine:
    """The Tuscan test line: DN50, hard Arno-basin water, 15 °C."""
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return WaterLine(LineConfig(seed=_child_seed(child)))


@dataclass
class CalibratedSetup:
    """Everything :func:`build_calibrated_monitor` produced.

    Attributes
    ----------
    monitor:
        Calibrated, ready-to-run monitoring point.
    rig:
        Test rig wrapping the monitor, the line and the reference meter.
    calibration:
        The fitted calibration (also installed in the monitor).
    """

    monitor: WaterFlowMonitor
    rig: TestRig
    calibration: FlowCalibration


#: LRU of (calibration, sensor-state snapshot) keyed by every input that
#: determines the campaign outcome.
_CALIBRATION_CACHE: "OrderedDict[tuple, tuple[FlowCalibration, dict]]" = OrderedDict()
_CALIBRATION_CACHE_MAX = 32
_CACHE_HITS = 0
_CACHE_MISSES = 0


def clear_calibration_cache() -> None:
    """Drop all memoized calibrations (test isolation / memory).

    A calibrated :class:`repro.runtime.Session` holds its own fleet's
    records until :meth:`~repro.runtime.Session.close`, so clearing the
    LRU never makes its later runs recalibrate.
    """
    global _CACHE_HITS, _CACHE_MISSES
    _CALIBRATION_CACHE.clear()
    _CACHE_HITS = 0
    _CACHE_MISSES = 0


def calibration_cache_stats() -> dict:
    """Lifetime LRU statistics: size, hits, misses and the hit rate.

    The hit/miss tallies are process-lifetime (reset by
    :func:`clear_calibration_cache`); uncacheable builds (caller-owned
    housing, ``use_cache=False``) count as misses — they paid for a
    full campaign.  A *miss* may still be served from the disk-backed
    artifact store without a campaign — the store keeps its own
    hit/miss tallies (:meth:`repro.store.ArtifactStore.stats`).
    """
    lookups = _CACHE_HITS + _CACHE_MISSES
    return {
        "size": len(_CALIBRATION_CACHE),
        "max_size": _CALIBRATION_CACHE_MAX,
        "hits": _CACHE_HITS,
        "misses": _CACHE_MISSES,
        "hit_rate": _CACHE_HITS / lookups if lookups else 0.0,
    }


#: Smallest group of campaigns that runs as one batch engine.  Misses
#: whose calibration rigs share a signature and a campaign calibrate
#: together once there are this many of them; smaller groups run the
#: scalar loop rig by rig.  Set where the engine stops losing to the
#: scalar loop on a campaign (docs/performance.md, "Batched
#: calibration").
BATCH_CALIBRATION_MIN_RIGS = 2

#: LRU placeholder for a record being resolved in the current batch.
_PENDING = ("pending",)


@dataclass
class _Build:
    """One build's campaign inputs and the keys its record lives under."""

    seed: int
    loop_rate_hz: float
    overtemperature_k: float
    output_bandwidth_hz: float
    use_pulsed_drive: bool
    bit_true_adc: bool
    speeds: list[float]
    fast: bool
    sensor_cfg: MAFConfig
    housing: SensorHousing | None
    cacheable: bool
    bench_seeds: tuple[int, int, int]

    @classmethod
    def of(cls, seed: int = 42, loop_rate_hz: float = 1000.0,
           overtemperature_k: float = 5.0, output_bandwidth_hz: float = 0.1,
           use_pulsed_drive: bool = True, bit_true_adc: bool = False,
           calibration_speeds_cmps: list[float] | None = None,
           fast: bool = False, sensor_config: MAFConfig | None = None,
           housing: SensorHousing | None = None,
           use_cache: bool = True) -> "_Build":
        """From :func:`build_calibrated_monitor`'s arguments."""
        (die_ss, *bench, _, _, _) = np.random.SeedSequence(seed).spawn(7)
        return cls(
            seed, loop_rate_hz, overtemperature_k, output_bandwidth_hz,
            use_pulsed_drive, bit_true_adc,
            list(calibration_speeds_cmps or DEFAULT_CALIBRATION_SPEEDS_CMPS),
            fast, sensor_config or MAFConfig(seed=_child_seed(die_ss)),
            housing, use_cache and housing is None,
            tuple(_child_seed(ss) for ss in bench))

    @functools.cached_property
    def cache_key(self) -> tuple:
        return (repr(self.sensor_cfg), self.seed, self.loop_rate_hz,
                self.overtemperature_k, self.output_bandwidth_hz,
                self.use_pulsed_drive, self.bit_true_adc,
                tuple(self.speeds), self.fast)

    @functools.cached_property
    def disk_key(self) -> str:
        return canonical_key({
            "sensor": self.sensor_cfg.to_dict(),
            "seed": self.seed,
            "loop_rate_hz": self.loop_rate_hz,
            "overtemperature_k": self.overtemperature_k,
            "output_bandwidth_hz": self.output_bandwidth_hz,
            "use_pulsed_drive": self.use_pulsed_drive,
            "bit_true_adc": self.bit_true_adc,
            "speeds": self.speeds,
            "fast": self.fast,
        })

    @property
    def windows(self) -> dict:
        """The campaign's settle and average windows."""
        return {"settle_s": 0.3 if self.fast else 1.0,
                "average_s": 0.2 if self.fast else 0.5}

    def calibration_rig(self) -> TestRig:
        """A fresh die on the calibration bench, on continuous drive.

        Its estimator holds a placeholder law: the campaign never reads
        the estimator, which only exists because a rig has one.
        """
        platform_seed, line_seed, reference_seed = self.bench_seeds
        monitor = WaterFlowMonitor(
            MAFSensor(self.sensor_cfg, housing=self.housing),
            FlowCalibration(law=KingsLaw(coeff_a=1.0, coeff_b=1.0),
                            overtemperature_k=self.overtemperature_k),
            MonitorConfig(loop_rate_hz=self.loop_rate_hz,
                          cta=CTAConfig(
                              overtemperature_k=self.overtemperature_k),
                          use_pulsed_drive=False),
            platform=ISIFPlatform.for_anemometer(
                loop_rate_hz=self.loop_rate_hz,
                bit_true_adc=self.bit_true_adc, seed=platform_seed))
        return TestRig(monitor, line=WaterLine(LineConfig(seed=line_seed)),
                       reference=Promag50(seed=reference_seed))


def _calibration_records(build_kwargs: list[dict], store=None
                         ) -> list[tuple[FlowCalibration, dict]]:
    """Resolve each build's (calibration, post-campaign snapshot) pair.

    ``build_kwargs`` holds one dict of :func:`build_calibrated_monitor`
    arguments (seed included, ``store`` left out) per build.  Builds
    look in the LRU in the order given, with the moves,
    evictions and hit/miss tallies of resolving them one at a time; a
    key missed twice is resolved once.  Misses then look in the
    artifact store, and only the rest run the §4 campaign, publishing
    the pair to both.  Campaigns that share a calibration-rig signature
    and a setpoint schedule run as one batch engine when there are at
    least :data:`BATCH_CALIBRATION_MIN_RIGS` of them
    (:func:`repro.station.rig.run_calibration_batch`); the others, and
    every build with a caller-owned housing, ``use_cache=False`` or a
    bit-true ADC, run the scalar loop.  Either way a record is
    bit-identical to the scalar campaign's.

    If a campaign raises, the records resolved before it are cached
    and the error propagates.  The LRU then matches one-at-a-time
    resolution only up to evictions: held places of builds that never
    resolved are given up, but the entries they evicted are not
    restored.
    """
    global _CACHE_HITS, _CACHE_MISSES
    builds = [_Build.of(**kwargs) for kwargs in build_kwargs]
    registry = get_registry()
    records: list = [None] * len(builds)
    waiting: dict[tuple, list[int]] = {}
    todo: list[int] = []
    for i, build in enumerate(builds):
        key = build.cache_key if build.cacheable else None
        cached = _CALIBRATION_CACHE.get(key) if key is not None else None
        if cached is not None:
            _CACHE_HITS += 1
            if registry.enabled:
                registry.counter("station.calibration_cache.hits").inc()
            _CALIBRATION_CACHE.move_to_end(key)
            if cached is _PENDING:
                waiting[key].append(i)
            else:
                records[i] = cached
            continue
        _CACHE_MISSES += 1
        if registry.enabled:
            registry.counter("station.calibration_cache.misses").inc()
        if not build.cacheable:
            todo.append(i)
            continue
        if key not in waiting:
            waiting[key] = []
            todo.append(i)
        waiting[key].append(i)
        # Hold the key's LRU place now, so later builds see the LRU
        # one-at-a-time resolution would have shown them.
        _CALIBRATION_CACHE[key] = _PENDING
        while len(_CALIBRATION_CACHE) > _CALIBRATION_CACHE_MAX:
            _CALIBRATION_CACHE.popitem(last=False)
    resolved: dict[int, tuple[FlowCalibration, dict]] = {}
    try:
        _resolve_misses(builds, todo, store, resolved)
    finally:
        # On failure too: what resolved stays cached, the rest unhold
        # their places (entries they evicted stay evicted).
        for i, record in resolved.items():
            build = builds[i]
            if not build.cacheable:
                records[i] = record
                continue
            for j in waiting[build.cache_key]:
                records[j] = record
            if build.cache_key in _CALIBRATION_CACHE:
                _CALIBRATION_CACHE[build.cache_key] = record
        for key in waiting:
            if _CALIBRATION_CACHE.get(key) is _PENDING:
                del _CALIBRATION_CACHE[key]
    return records


def _resolve_misses(builds: list[_Build], todo: list[int], store,
                    resolved: dict[int, tuple[FlowCalibration, dict]]
                    ) -> None:
    """Store lookups, then campaigns, for the LRU misses at ``todo``.

    Fills ``resolved`` (position -> record) as records come in, so a
    campaign that raises leaves the records resolved before it.
    """
    disks, campaigns = {}, []
    for i in todo:
        build = builds[i]
        disk = (store or get_default_store()) if build.cacheable else None
        artifact = (disk.get("calibration", build.disk_key)
                    if disk is not None else None)
        if artifact is not None:
            try:
                load_state(MAFSensor(build.sensor_cfg), artifact["snapshot"])
            except ConfigurationError:
                # A snapshot in an older layout: a miss, re-run the campaign.
                artifact = None
        if artifact is not None:
            resolved[i] = (artifact["calibration"], artifact["snapshot"])
        else:
            disks[i] = disk
            campaigns.append(i)
    for group, rigs in _campaign_groups(builds, campaigns):
        calibrations = _campaign([builds[i] for i in group], rigs)
        for i, calibration, rig in zip(group, calibrations, rigs):
            resolved[i] = (calibration, state_of(rig.monitor.sensor))
            if disks[i] is not None:
                disks[i].put("calibration", builds[i].disk_key,
                             {"calibration": calibration,
                              "snapshot": resolved[i][1]})


def _campaign_groups(builds: list[_Build], campaigns: list[int]):
    """``(positions, calibration rigs)`` per campaign group.

    Cached builds group by (rig signature, setpoints, windows), the
    rule that decides which rigs share a
    :class:`~repro.runtime.BatchEngine`.  A build that is uncached, or
    whose rig the engine refuses (a bit-true ADC, say), is a group of
    its own, so it calibrates on the scalar loop.
    """
    # Lazy: runtime imports us.
    from repro.runtime.batch import _signature, _validate_fleet
    keys: list = []
    groups: list[tuple[list[int], list[TestRig]]] = []
    for i in campaigns:
        build = builds[i]
        rig = build.calibration_rig()
        key = None
        if build.cacheable:
            try:
                _validate_fleet([rig])
                key = (_signature(rig), build.speeds, build.fast)
            except ConfigurationError:
                pass
        # A scan, not a dict: a signature holds unhashable configs.
        for known, (positions, rigs) in zip(keys, groups):
            if key is not None and known == key:
                positions.append(i)
                rigs.append(rig)
                break
        else:
            keys.append(key)
            groups.append(([i], [rig]))
    return groups


def _campaign(builds: list[_Build],
              rigs: list[TestRig]) -> list[FlowCalibration]:
    """Calibrate one group: on one batch engine when the group is big
    enough, else rig by rig on the scalar loop."""
    build = builds[0]
    if len(rigs) >= BATCH_CALIBRATION_MIN_RIGS:
        with get_tracer().span("scenarios.calibration_batch",
                               rigs=len(rigs), speeds=len(build.speeds)):
            return run_calibration_batch(rigs, build.speeds,
                                         **build.windows)
    calibrations = []
    for each, rig in zip(builds, rigs):
        with get_tracer().span("scenarios.calibration_campaign",
                               seed=each.seed):
            calibrations.append(run_calibration(
                rig.monitor.controller, each.speeds, line=rig.line,
                reference=rig.reference, **each.windows))
    return calibrations


def _assemble(
    record: tuple[FlowCalibration, dict],
    seed: int = 42,
    loop_rate_hz: float = 1000.0,
    overtemperature_k: float = 5.0,
    output_bandwidth_hz: float = 0.1,
    use_pulsed_drive: bool = True,
    bit_true_adc: bool = False,
    sensor_config: MAFConfig | None = None,
    housing: SensorHousing | None = None,
    **_campaign,
) -> CalibratedSetup:
    """Build a fresh rig in the post-calibration state ``record`` holds.

    A fresh sensor from the same config and seed has the same realized
    tolerances; restoring the snapshot puts it bit for bit where the
    campaign left it.  The campaign-only knobs
    (``calibration_speeds_cmps``, ``fast``, ``use_cache``, ``store``)
    shaped ``record`` and are accepted and ignored here, so a caller can
    pass the same keyword arguments it built with.
    """
    (die_ss, *_, run_platform_ss, rig_line_ss, rig_reference_ss) = \
        np.random.SeedSequence(seed).spawn(7)
    calibration, snapshot = record
    sensor = MAFSensor(sensor_config or MAFConfig(seed=_child_seed(die_ss)),
                       housing=housing)
    load_state(sensor, snapshot)
    monitor_cfg = MonitorConfig(
        loop_rate_hz=loop_rate_hz,
        cta=CTAConfig(overtemperature_k=overtemperature_k),
        output_bandwidth_hz=output_bandwidth_hz,
        use_pulsed_drive=use_pulsed_drive,
    )
    run_platform = ISIFPlatform.for_anemometer(
        loop_rate_hz=loop_rate_hz, bit_true_adc=bit_true_adc,
        seed=_child_seed(run_platform_ss))
    monitor = WaterFlowMonitor(sensor, calibration, monitor_cfg,
                               platform=run_platform)
    rig = TestRig(
        monitor,
        line=WaterLine(LineConfig(seed=_child_seed(rig_line_ss)),
                       turbulence_multiplier=sensor.housing.turbulence_multiplier()),
        reference=Promag50(seed=_child_seed(rig_reference_ss)))
    return CalibratedSetup(monitor=monitor, rig=rig, calibration=calibration)


def build_calibrated_monitor(
    seed: int = 42,
    loop_rate_hz: float = 1000.0,
    overtemperature_k: float = 5.0,
    output_bandwidth_hz: float = 0.1,
    use_pulsed_drive: bool = True,
    bit_true_adc: bool = False,
    calibration_speeds_cmps: list[float] | None = None,
    fast: bool = False,
    sensor_config: MAFConfig | None = None,
    housing: SensorHousing | None = None,
    use_cache: bool = True,
    store=None,
) -> CalibratedSetup:
    """Build, calibrate and wrap a complete monitoring point.

    Parameters
    ----------
    seed:
        Instance seed; spawned into independent child streams (die
        tolerances, calibration bench, runtime rig) via SeedSequence.
    loop_rate_hz / overtemperature_k / output_bandwidth_hz:
        Loop and estimator settings (paper defaults).
    use_pulsed_drive:
        Operate (post-calibration) with the paper's pulsed drive.
    bit_true_adc:
        Use the bit-true ΣΔ + CIC chain (slow; E13 only).
    calibration_speeds_cmps:
        Campaign setpoints; defaults to the 0-250 cm/s ladder.
    fast:
        Shorter settle/average windows — for unit tests, not benches.
    sensor_config / housing:
        Override the die or the assembly under test.
    use_cache:
        Memoize the campaign per distinct configuration (default).
        Builds with a caller-owned ``housing`` always bypass the cache.
    store:
        Disk-backed :class:`repro.store.ArtifactStore` layered under
        the in-process LRU (defaults to the process-wide store from
        :func:`repro.store.get_default_store`, if any).  Cacheable LRU
        misses consult it before recalibrating and publish the fitted
        artifact after a campaign.
    """
    (record,) = _calibration_records([dict(
        seed=seed, loop_rate_hz=loop_rate_hz,
        overtemperature_k=overtemperature_k,
        output_bandwidth_hz=output_bandwidth_hz,
        use_pulsed_drive=use_pulsed_drive, bit_true_adc=bit_true_adc,
        calibration_speeds_cmps=calibration_speeds_cmps, fast=fast,
        sensor_config=sensor_config, housing=housing,
        use_cache=use_cache)], store)
    return _assemble(record, seed, loop_rate_hz, overtemperature_k,
                     output_bandwidth_hz, use_pulsed_drive, bit_true_adc,
                     sensor_config, housing)
