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
keeps its own fleet's records and re-assembles from them on every run,
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
"""

from __future__ import annotations

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
from repro.sensor.maf import MAFConfig, MAFSensor
from repro.sensor.packaging import SensorHousing
from repro.station.line import LineConfig, WaterLine
from repro.state import load_state, state_of
from repro.station.rig import TestRig, run_calibration
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


def _calibration_record(
    seed: int,
    loop_rate_hz: float,
    overtemperature_k: float,
    output_bandwidth_hz: float,
    use_pulsed_drive: bool,
    bit_true_adc: bool,
    calibration_speeds_cmps: list[float] | None,
    fast: bool,
    sensor_config: MAFConfig | None,
    housing: SensorHousing | None,
    use_cache: bool,
    store,
) -> tuple[FlowCalibration, dict]:
    """Resolve one build's (calibration, post-campaign snapshot) pair.

    Looks in the LRU, then the artifact store, and only then runs the
    §4 campaign (publishing the pair to both).
    """
    (die_ss, cal_platform_ss, cal_line_ss, cal_reference_ss, *_) = \
        np.random.SeedSequence(seed).spawn(7)
    sensor_cfg = sensor_config or MAFConfig(seed=_child_seed(die_ss))
    speeds = list(calibration_speeds_cmps or DEFAULT_CALIBRATION_SPEEDS_CMPS)
    cacheable = use_cache and housing is None
    cache_key = (repr(sensor_cfg), seed, loop_rate_hz, overtemperature_k,
                 output_bandwidth_hz, use_pulsed_drive, bit_true_adc,
                 tuple(speeds), fast)
    cached = _CALIBRATION_CACHE.get(cache_key) if cacheable else None
    global _CACHE_HITS, _CACHE_MISSES
    registry = get_registry()
    if cached is not None:
        _CACHE_HITS += 1
        if registry.enabled:
            registry.counter("station.calibration_cache.hits").inc()
        _CALIBRATION_CACHE.move_to_end(cache_key)
        return cached
    _CACHE_MISSES += 1
    if registry.enabled:
        registry.counter("station.calibration_cache.misses").inc()
    disk = (store or get_default_store()) if cacheable else None
    disk_key = canonical_key({
        "sensor": sensor_cfg.to_dict(),
        "seed": seed,
        "loop_rate_hz": loop_rate_hz,
        "overtemperature_k": overtemperature_k,
        "output_bandwidth_hz": output_bandwidth_hz,
        "use_pulsed_drive": use_pulsed_drive,
        "bit_true_adc": bit_true_adc,
        "speeds": speeds,
        "fast": fast,
    }) if disk is not None else None
    artifact = disk.get("calibration", disk_key) if disk is not None else None
    sensor = MAFSensor(sensor_cfg, housing=housing)
    if artifact is not None:
        try:
            load_state(sensor, artifact["snapshot"])
        except ConfigurationError:
            # A snapshot in an older layout: a miss, re-run the campaign.
            artifact = None
    if artifact is not None:
        record = (artifact["calibration"], artifact["snapshot"])
    else:
        with get_tracer().span("scenarios.calibration_campaign", seed=seed):
            cal_platform = ISIFPlatform.for_anemometer(
                loop_rate_hz=loop_rate_hz, bit_true_adc=bit_true_adc,
                seed=_child_seed(cal_platform_ss))
            cal_controller = CTAController(
                sensor, cal_platform,
                CTAConfig(overtemperature_k=overtemperature_k))
            line = WaterLine(LineConfig(seed=_child_seed(cal_line_ss)))
            calibration = run_calibration(
                cal_controller, speeds, line=line,
                reference=Promag50(seed=_child_seed(cal_reference_ss)),
                settle_s=0.3 if fast else 1.0,
                average_s=0.2 if fast else 0.5)
        record = (calibration, state_of(sensor))
        if disk is not None:
            disk.put("calibration", disk_key,
                     {"calibration": calibration, "snapshot": record[1]})
    if cacheable:
        _CALIBRATION_CACHE[cache_key] = record
        while len(_CALIBRATION_CACHE) > _CALIBRATION_CACHE_MAX:
            _CALIBRATION_CACHE.popitem(last=False)
    return record


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
    record = _calibration_record(
        seed, loop_rate_hz, overtemperature_k, output_bandwidth_hz,
        use_pulsed_drive, bit_true_adc, calibration_speeds_cmps, fast,
        sensor_config, housing, use_cache, store)
    return _assemble(record, seed, loop_rate_hz, overtemperature_k,
                     output_bandwidth_hz, use_pulsed_drive, bit_true_adc,
                     sensor_config, housing)
