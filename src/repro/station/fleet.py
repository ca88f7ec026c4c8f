"""Fleet simulation: a monitored distribution network over days.

The §6 end-state: MAF monitoring points at both ends of every pipe of a
distribution network, diurnal demands, and a supervisor running segment
mass balance.  Simulating every node's full mixed-signal loop for days
is wasteful — each monitor's behaviour at the fleet time scale is fully
characterised by its calibration bias and resolution, both *measured*
from the real simulated monitor (bench E2/E3).  The fleet model
therefore wraps each meter as (bias, noise) drawn from those measured
distributions, which keeps day-scale runs tractable while staying
anchored to the detailed model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.observability import get_event_log, get_registry, get_tracer
from repro.conditioning.leak_detect import LeakDetector, LeakEvent, NetworkSegmentMonitor
from repro.station.demand import DiurnalDemand
from repro.station.network import PipeNetwork
from repro.station.profiles import Profile

__all__ = ["MeterCharacter", "MonitoredNetwork", "FleetReport",
           "characterize_meter_pool"]


def characterize_meter_pool(fleet, *,
                            speed_cmps: float = 100.0,
                            duration_s: float = 20.0,
                            settle_s: float = 8.0,
                            workers: int | None = None,
                            numerics: str = "exact",
                            ) -> list["MeterCharacter"]:
    """Measure meter characters from full monitor simulations.

    Builds and calibrates the fleet's complete monitoring points
    through the batched runtime (:class:`repro.runtime.Session`), holds
    them at a steady line speed, and condenses each monitor's steady
    window into the (bias, noise) pair the fleet model consumes — the
    E2/E3 anchoring described in the module docstring, automated.

    Parameters
    ----------
    fleet:
        A :class:`repro.runtime.FleetSpec` describing the pool —
        possibly mixed; a structurally heterogeneous pool sub-batches
        per config group through the mixed engine, bit-identical per
        meter to characterizing its group alone.  The spec carries the
        seed and every build setting (a typical pool:
        ``FleetSpec.homogeneous(n, seed=s, use_pulsed_drive=False,
        fast_calibration=True)``).
    speed_cmps:
        Steady characterization speed [cm/s].
    duration_s / settle_s:
        Hold duration and the initial transient to discard.
    workers:
        Forwarded to :meth:`repro.runtime.Session.run`; with
        ``workers > 1`` a pool of several config groups runs its groups
        as jobs in worker processes, and a one-group pool runs
        in-process (bit-identical traces either way, so the measured
        characters do not depend on the worker count).
    numerics:
        Kernel numerics mode for the characterization hold, forwarded
        to :meth:`repro.runtime.Session.run`: ``"exact"`` (default) or
        ``"fast"`` (≤1e-9 relative error on the traces, far below the
        bias/noise statistics condensed here).

    Returns
    -------
    list[MeterCharacter]
        One character per monitor, in fleet index order.
    """
    from repro.runtime import (  # local: avoid a station->runtime cycle
        FleetSpec, Session)
    from repro.station.profiles import hold

    if not isinstance(fleet, FleetSpec):
        raise ConfigurationError(
            f"characterize_meter_pool takes a FleetSpec describing the "
            f"pool, got {type(fleet).__name__}")
    spec = fleet
    n_meters = spec.n_monitors
    if not 0.0 <= settle_s < duration_s:
        raise ConfigurationError("settle window must fit inside the hold")
    true_mps = speed_cmps * 1e-2
    with get_tracer().span("fleet.characterize_meter_pool",
                           n_meters=n_meters, seed=spec.seed):
        with Session(fleet=spec) as session:
            session.calibrate()
            result = session.run(hold(speed_cmps, duration_s),
                                 workers=workers, numerics=numerics)
    registry = get_registry()
    if registry.enabled:
        registry.counter("station.fleet.meters_characterized").inc(n_meters)
    get_event_log().emit("fleet.characterize", n_meters=n_meters,
                         seed=spec.seed, workers=workers, numerics=numerics)
    characters = []
    for i in range(n_meters):
        window = result.trace(i).steady_window(settle_s, duration_s)
        measured = np.asarray(window.measured_mps, dtype=float)
        bias = (float(measured.mean()) - true_mps) / true_mps \
            if true_mps > 0.0 else 0.0
        characters.append(MeterCharacter(
            bias_fraction=float(np.clip(bias, -0.2, 0.2)),
            noise_mps=float(measured.std()),
        ))
    return characters


@dataclass(frozen=True)
class MeterCharacter:
    """Day-scale behavioural summary of one installed MAF monitor.

    Attributes
    ----------
    bias_fraction:
        Calibration bias as a fraction of reading (E1-class systematic).
    noise_mps:
        1σ reading noise at the reporting cadence (E2-class, at the
        0.1 Hz output bandwidth).
    """

    bias_fraction: float = 0.0
    noise_mps: float = 0.004

    def __post_init__(self) -> None:
        if abs(self.bias_fraction) > 0.2:
            raise ConfigurationError("bias beyond any calibrated meter")
        if self.noise_mps < 0.0:
            raise ConfigurationError("noise must be non-negative")


@dataclass
class FleetReport:
    """Outcome of one fleet run.

    Attributes
    ----------
    events:
        Leak alarms raised, in order.
    snapshots:
        Meter snapshots processed.
    night_fraction:
        Fraction of snapshots inside the night window (diagnostic
        sensitivity budget).
    """

    events: list[LeakEvent] = field(default_factory=list)
    snapshots: int = 0
    night_fraction: float = 0.0


class MonitoredNetwork:
    """A pipe network with a meter pair per segment and a supervisor.

    Parameters
    ----------
    network:
        The hydraulic substrate (demands are overwritten by the
        per-node diurnal generators each snapshot).
    seed:
        Seed for meter characters and noise.
    meter_noise_mps:
        1σ reading noise applied per meter per snapshot.
    meter_bias_sigma:
        1σ of the per-meter calibration bias draw.
    characters:
        Optional measured characters keyed by ``(up, down, position)``
        with position ``"inlet"`` or ``"outlet"``; keys present here
        override the synthetic draw (use
        :func:`characterize_meter_pool` to obtain characters anchored
        to the full monitor simulation).  Keys not covered fall back to
        the drawn character, and the noise stream is unaffected.
    """

    def __init__(self, network: PipeNetwork, seed: int = 0,
                 meter_noise_mps: float = 0.004,
                 meter_bias_sigma: float = 0.003,
                 characters: dict[tuple[str, str, str],
                                 MeterCharacter] | None = None) -> None:
        self.network = network
        self._rng = np.random.default_rng(seed)
        self._demands: dict[str, DiurnalDemand] = {}
        self._meters: dict[tuple[str, str, str], MeterCharacter] = {}
        for i, (up, down) in enumerate(network.pipes):
            for j, position in enumerate(("inlet", "outlet")):
                # Always draw, so the RNG stream (and the per-snapshot
                # noise that follows it) is the same with or without
                # measured characters.
                drawn = MeterCharacter(
                    bias_fraction=float(
                        self._rng.normal(0.0, meter_bias_sigma)),
                    noise_mps=meter_noise_mps,
                )
                key = (up, down, position)
                self._meters[key] = (
                    characters.get(key, drawn) if characters else drawn)
        self.detector = LeakDetector()
        for up, down in network.pipes:
            # Drift: tolerate ~4 sigma of combined pair noise; threshold:
            # ~10 min of a just-above-drift leak at the 60 s cadence.
            self.detector.add_segment(NetworkSegmentMonitor(
                f"{up}->{down}", drift_mps=4.0 * meter_noise_mps,
                threshold_mps_s=1500.0 * meter_noise_mps))

    def attach_demand(self, node: str, demand: DiurnalDemand) -> None:
        """Drive a junction's demand with a diurnal generator."""
        self._demands[node] = demand

    def _reading(self, key: tuple[str, str, str], true_mps: float) -> float:
        meter = self._meters[key]
        return (true_mps * (1.0 + meter.bias_fraction)
                + float(self._rng.normal(0.0, meter.noise_mps)))

    def commission(self, hours: float = 2.0, snapshot_s: float = 60.0,
                   start_h: float = 2.0) -> None:
        """Learn each segment's standing meter-pair imbalance.

        Run once at installation on a known-leak-free network (night
        window by default, where flows are steadiest); the observed mean
        imbalance becomes the segment baseline the CUSUM works against.
        """
        if hours <= 0.0 or snapshot_s <= 0.0:
            raise ConfigurationError("hours and cadence must be positive")
        imb: dict[str, float] = {name: 0.0 for name in self.detector.segments}
        inlet: dict[str, float] = {name: 0.0 for name in self.detector.segments}
        count = 0
        steps = int(hours * 3600.0 / snapshot_s)
        for k in range(steps):
            t_h = start_h + k * snapshot_s / 3600.0
            for node, demand in self._demands.items():
                self.network.set_demand(node, demand.demand_m3_s(t_h))
            flows = self.network.solve()
            for (up, down), flow in flows.items():
                v_in = self._reading((up, down, "inlet"), flow.inlet_speed_mps)
                v_out = self._reading((up, down, "outlet"), flow.outlet_speed_mps)
                imb[f"{up}->{down}"] += v_in - v_out
                inlet[f"{up}->{down}"] += v_in
            count += 1
        for name in imb:
            # Meter-pair gain mismatch scales with flow: store it as a
            # ratio against the inlet reading so it cancels at any demand.
            ratio = imb[name] / inlet[name] if inlet[name] > 0.0 else 0.0
            self.detector.segment(name).set_baseline(baseline_ratio=ratio)

    def run(self, profile: Profile | float, *,
            snapshot_s: float = 60.0,
            leak: tuple[str, str, float] | None = None,
            leak_at_h: float | None = None) -> FleetReport:
        """Simulate the fleet for a duration.

        This is the unified run surface (shared with
        :meth:`repro.runtime.session.Session.run` and
        :meth:`repro.station.rig.TestRig.run`): a profile (or a plain
        duration in hours) first, everything else keyword-only.

        The day-scale fleet model executes serially by construction:
        every meter reading is drawn from one shared RNG stream, so
        sharding it across processes would change the realized noise.
        The heavy lifting that *does* parallelize — characterizing the
        meter pool — goes through :func:`characterize_meter_pool`'s
        ``workers``.

        Parameters
        ----------
        profile:
            Simulated span — either a
            :class:`~repro.station.profiles.Profile` (its
            ``duration_s`` sets the span; the fleet abstraction does
            not track the profile's speed setpoints) or a plain number
            of hours.
        snapshot_s:
            Meter reporting cadence (default 60 s).
        leak / leak_at_h:
            Optional (upstream, downstream, m3/s) leak opened at the
            given hour.
        """
        span_h = (profile.duration_s / 3600.0
                  if isinstance(profile, Profile) else float(profile))
        if span_h <= 0.0 or snapshot_s <= 0.0:
            raise ConfigurationError("hours and cadence must be positive")
        with get_tracer().span("fleet.run", hours=span_h,
                               segments=len(self.detector.segments)):
            report = self._run(span_h, float(snapshot_s), leak, leak_at_h)
        registry = get_registry()
        if registry.enabled:
            registry.counter("station.fleet.snapshots").inc(report.snapshots)
            registry.counter("station.fleet.leak_events").inc(
                len(report.events))
        get_event_log().emit("fleet.run", hours=span_h,
                             snapshots=report.snapshots,
                             leak_events=len(report.events))
        return report

    def _run(self, hours: float, snapshot_s: float,
             leak: tuple[str, str, float] | None,
             leak_at_h: float | None) -> FleetReport:
        report = FleetReport()
        night = 0
        steps = int(hours * 3600.0 / snapshot_s)
        probe = next(iter(self._demands.values()), None)
        for k in range(steps):
            t_h = k * snapshot_s / 3600.0
            for node, demand in self._demands.items():
                self.network.set_demand(node, demand.demand_m3_s(t_h))
            if leak is not None and leak_at_h is not None and \
                    t_h >= leak_at_h and k == int(leak_at_h * 3600.0 / snapshot_s):
                self.network.inject_leak(leak[0], leak[1], leak[2])
            flows = self.network.solve()
            readings = {
                f"{up}->{down}": (
                    self._reading((up, down, "inlet"), flow.inlet_speed_mps),
                    self._reading((up, down, "outlet"), flow.outlet_speed_mps),
                )
                for (up, down), flow in flows.items()
            }
            report.events.extend(self.detector.update(readings, snapshot_s))
            report.snapshots += 1
            if probe is not None and probe.is_night_window(t_h):
                night += 1
        report.night_fraction = night / max(report.snapshots, 1)
        return report
