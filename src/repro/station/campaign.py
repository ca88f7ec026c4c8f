"""Scenario campaigns: demand generators + event injection over fleets.

The paper characterizes one meter on a bench; a deployment review asks a
different question — *what does the fleet report when something happens
on the line?*  This module provides the scenario layer:

- **Demand generators** (:func:`household_demand`,
  :func:`station_demand`) synthesize line profiles from the diurnal
  demand model in :mod:`repro.station.demand`: one or more 24 h demand
  cycles compressed into a simulated window, household-shaped (sharp
  07:30/19:30 peaks over a deep night floor) or station-shaped
  (flatter, higher base).
- **An event vocabulary** (:data:`EVENT_KINDS`): slab leak, tank leak,
  mains burst, low-flow trickle, freeze, and CaCO3-heavy episodes —
  each a deterministic transform of the ``(speed, pressure,
  temperature)`` setpoints over a ``[at_s, at_s + duration_s)`` window.
  :class:`Event` schedules one occurrence; :class:`ScenarioSpec` names
  a schedule; :func:`builtin_scenario` places each kind's canonical
  occurrence inside a given horizon.
- **The campaign driver** (:func:`run_campaign`): takes a
  :class:`~repro.runtime.FleetSpec` whose entries carry scenario tags,
  materializes the fleet, splits it into one *leg* per scenario, and
  advances each leg window-by-window on one
  :class:`~repro.runtime.mixed.MixedEngine` (which runs each config
  group of the leg on its own batch engine) with the event schedule
  applied at *absolute step offsets* — so a rig's trace is
  bit-identical whether or not unrelated scenarios or configs run
  alongside it.  Per-window ``run.*`` summary deltas (vs the
  scenario's pre-event window) for every (config group, scenario)
  pair and day-scale rollups land in the returned
  :class:`CampaignReport`.

Runtime imports stay inside functions (the station package must not
import :mod:`repro.runtime` at module load; see
:func:`repro.station.fleet.characterize_meter_pool` for the same
idiom).

Campaigns are durable: pass ``checkpoint_dir=`` and
:func:`run_campaign` snapshots the live leg engine plus all completed
bookkeeping after every window (the event-edge cuts it already advances
between), through the windowed-run driver
:class:`repro.runtime.checkpoint.WindowedRun` — the whole campaign is
one run over its scenario legs.  A killed campaign restarted with
``resume=True`` skips the completed legs and windows and produces a
:class:`CampaignReport` bit-identical to an uninterrupted run — legs
execute in a deterministic order and untouched legs re-materialize
from their seeds, so only the in-flight engine needs to ride the
checkpoint.  The driver's
``REPRO_FAULT=kill:<k>`` site (:mod:`repro.runtime.faults`) SIGKILLs
the process right after the k-th checkpoint write, for tests and CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.observability import get_event_log, get_registry, get_tracer
from repro.station.demand import DiurnalDemand, DiurnalDemandShape
from repro.station.profiles import Profile, Segment

__all__ = ["EVENT_KINDS", "SCENARIO_NAMES", "Event", "ScenarioSpec",
           "ScenarioProfile", "CampaignReport", "builtin_scenario",
           "resolve_scenario", "household_demand", "station_demand",
           "run_campaign"]


def _slab_leak(s: float, p: float, t: float, m: float):
    """Concealed slab leak: a small persistent draw with pressure sag."""
    return s + 0.05 * m, p - 5.0e3 * m, t


def _tank_leak(s: float, p: float, t: float, m: float):
    """Tank float leak: a trickle-scale persistent draw, pressure intact."""
    return s + 0.02 * m, p, t


def _mains_burst(s: float, p: float, t: float, m: float):
    """Mains burst: a large draw with a deep pressure drop."""
    return s + 0.8 * m, p - 0.8e5 * m, t


def _low_flow_trickle(s: float, p: float, t: float, m: float):
    """Low-flow trickle: a floor under the line speed (running fixture)."""
    return max(s, 0.01 * m), p, t


def _freeze(s: float, p: float, t: float, m: float):
    """Freeze event: water chilled toward 0.5 degC, flow throttled."""
    return 0.3 * s, p, max(273.65, t - 12.0 * m)


def _caco3_episode(s: float, p: float, t: float, m: float):
    """CaCO3-heavy episode: warm hard-water supply shifting the film."""
    return s, p, t + 6.0 * m


#: The event-injection vocabulary: kind -> setpoint transform
#: ``(speed_mps, pressure_pa, temperature_k, magnitude) -> (s, p, t)``.
EVENT_KINDS = {
    "slab_leak": _slab_leak,
    "tank_leak": _tank_leak,
    "mains_burst": _mains_burst,
    "low_flow_trickle": _low_flow_trickle,
    "freeze": _freeze,
    "caco3_episode": _caco3_episode,
}

#: Names :func:`builtin_scenario` accepts: ``baseline`` plus one
#: canonical occurrence of each event kind.
SCENARIO_NAMES = ("baseline",) + tuple(EVENT_KINDS)

#: Canonical in-horizon placement per builtin scenario:
#: (start fraction, duration fraction, magnitude).
_BUILTIN_PLACEMENTS = {
    "slab_leak": (0.30, 0.60, 1.0),
    "tank_leak": (0.25, 0.50, 1.0),
    "mains_burst": (0.50, 0.15, 1.0),
    "low_flow_trickle": (0.20, 0.60, 1.0),
    "freeze": (0.40, 0.30, 1.0),
    "caco3_episode": (0.30, 0.40, 1.0),
}


@dataclass(frozen=True)
class Event:
    """One scheduled occurrence of an event kind.

    Active over ``[at_s, at_s + duration_s)`` in *absolute* profile
    time; ``magnitude`` scales the kind's canonical effect (1.0 is the
    textbook occurrence).
    """

    kind: str
    at_s: float
    duration_s: float
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        """Validate the kind and the schedule window."""
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown event kind {self.kind!r}; one of "
                f"{sorted(EVENT_KINDS)}")
        if self.at_s < 0.0:
            raise ConfigurationError("event start must be non-negative")
        if self.duration_s <= 0.0:
            raise ConfigurationError("event duration must be positive")

    def apply(self, s: float, p: float, t: float) -> tuple:
        """Transform one setpoint triple by this event's effect."""
        return EVENT_KINDS[self.kind](s, p, t, self.magnitude)

    def to_dict(self) -> dict:
        """JSON-safe dict form (round-trips through :meth:`from_dict`)."""
        return {"kind": self.kind, "at_s": self.at_s,
                "duration_s": self.duration_s,
                "magnitude": self.magnitude}

    @classmethod
    def from_dict(cls, payload: dict) -> "Event":
        """Rebuild an Event from its :meth:`to_dict` form."""
        return cls(**payload)


@dataclass(frozen=True)
class ScenarioSpec:
    """A named event-injection schedule (possibly empty = baseline)."""

    name: str
    events: tuple[Event, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        """Normalize the event sequence to a tuple."""
        object.__setattr__(self, "events", tuple(self.events))

    def to_dict(self) -> dict:
        """JSON-safe dict form (round-trips through :meth:`from_dict`)."""
        return {"name": self.name,
                "events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        """Rebuild a ScenarioSpec from its :meth:`to_dict` form."""
        return cls(name=str(payload["name"]),
                   events=tuple(Event.from_dict(e)
                                for e in payload.get("events", ())))


def builtin_scenario(name: str, duration_s: float) -> ScenarioSpec:
    """The canonical scenario of a given name, sized to a horizon.

    ``baseline`` has no events; every event kind gets one occurrence at
    its canonical fraction of ``duration_s`` (e.g. ``mains_burst``
    starts at 0.5 T and lasts 0.15 T).
    """
    if duration_s <= 0.0:
        raise ConfigurationError("scenario horizon must be positive")
    if name == "baseline":
        return ScenarioSpec(name="baseline")
    if name not in _BUILTIN_PLACEMENTS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; one of {sorted(SCENARIO_NAMES)}")
    frac_at, frac_dur, magnitude = _BUILTIN_PLACEMENTS[name]
    return ScenarioSpec(name=name, events=(
        Event(kind=name, at_s=frac_at * duration_s,
              duration_s=frac_dur * duration_s, magnitude=magnitude),))


def resolve_scenario(tag, duration_s: float) -> ScenarioSpec:
    """Coerce a FleetSpec scenario tag to a :class:`ScenarioSpec`.

    ``None`` means baseline; a string names a builtin scenario; a
    ready :class:`ScenarioSpec` passes through unchanged.
    """
    if tag is None:
        return ScenarioSpec(name="baseline")
    if isinstance(tag, str):
        return builtin_scenario(tag, duration_s)
    if isinstance(tag, ScenarioSpec):
        return tag
    raise ConfigurationError(
        f"scenario tags are builtin names or ScenarioSpec, got "
        f"{type(tag).__name__}")


class ScenarioProfile(Profile):
    """A base profile with an event schedule layered on its setpoints.

    The batch kernels only ever call :meth:`Profile.setpoints
    <repro.station.profiles.Profile.setpoints>` at absolute times, so
    overriding it here injects events bit-exactly on any engine — one
    uninterrupted run and a window-sliced ``advance`` sequence see the
    same setpoint stream.  Speed is floored at 0 and pressure at
    10 kPa after the transforms.
    """

    def __init__(self, base: Profile, events: tuple[Event, ...]) -> None:
        """Wrap ``base`` (segments are shared) with ``events``."""
        super().__init__(list(base.segments))
        self.events = tuple(events)

    def setpoints(self, t_s: float) -> tuple[float, float, float]:
        """Base setpoints with every active event's transform applied."""
        s, p, t = super().setpoints(t_s)
        for event in self.events:
            if event.at_s <= t_s < event.at_s + event.duration_s:
                s, p, t = event.apply(s, p, t)
        return max(s, 0.0), max(p, 1.0e4), t


# -- demand generators -------------------------------------------------------

#: Station aggregation flattens the household curve: higher night floor,
#: broader and lower peaks (many unsynchronized consumers).
_STATION_SHAPE = DiurnalDemandShape(night_floor=0.55, morning_peak=1.25,
                                    evening_peak=1.2, peak_width_h=3.5)


def _demand_profile(duration_s: float, shape: DiurnalDemandShape | None,
                    base_cmps: float, days: int,
                    segments_per_day: int) -> Profile:
    """Compress ``days`` diurnal cycles into ``duration_s`` of profile."""
    if duration_s <= 0.0:
        raise ConfigurationError("demand horizon must be positive")
    if days < 1 or segments_per_day < 1:
        raise ConfigurationError(
            "need at least one day and one segment per day")
    demand = DiurnalDemand(1.0, shape=shape, noise_fraction=0.0)
    n = days * segments_per_day
    seg_s = duration_s / n
    segments = []
    for i in range(n):
        time_h = (i + 0.5) * 24.0 * days / n
        speed_mps = 1e-2 * base_cmps * demand.multiplier(time_h)
        segments.append(Segment(duration_s=seg_s, speed_mps=speed_mps))
    profile = Profile(segments)
    profile.campaign_days = days
    return profile


def household_demand(duration_s: float, *, base_cmps: float = 60.0,
                     days: int = 1,
                     segments_per_day: int = 48) -> Profile:
    """Synthetic household demand: sharp peaks over a deep night floor.

    ``days`` diurnal cycles (07:30/19:30 peaks, 03:00 minimum) are
    compressed into ``duration_s`` of simulated line time as a
    piecewise-constant profile of ``segments_per_day`` steps per cycle,
    scaled so the *mean* line speed is ``base_cmps`` [cm/s].  Fully
    deterministic — campaign runs stay bit-reproducible.
    """
    return _demand_profile(duration_s, None, base_cmps, days,
                           segments_per_day)


def station_demand(duration_s: float, *, base_cmps: float = 90.0,
                   days: int = 1,
                   segments_per_day: int = 48) -> Profile:
    """Synthetic station demand: the flatter many-consumer aggregate.

    Same construction as :func:`household_demand` but with a station
    shape (night floor 0.55, broad 1.2-1.25x peaks) and a higher
    default base speed.
    """
    return _demand_profile(duration_s, _STATION_SHAPE, base_cmps, days,
                           segments_per_day)


# -- the campaign driver -----------------------------------------------------

_DEMANDS = {"household": household_demand, "station": station_demand}


@dataclass
class CampaignReport:
    """What :func:`run_campaign` hands back.

    Attributes
    ----------
    result:
        The merged fleet :class:`~repro.runtime.RunResult` in caller
        order (row ``i`` is fleet position ``i``), with per-row
        ``(config_key:scenario, row_in_group)`` provenance.
    groups:
        One dict per (config group, scenario) pair, in the order the
        pairs first appear in the fleet:
        ``scenario``, ``config_key``, ``positions``, ``events`` and the
        per-window ``windows`` list — each window carrying its time
        span, the active event kinds, its ``run.*`` summary means and
        the ``deltas`` of those means vs the scenario's first
        (pre-event) window.
    days:
        Day-scale rollups: per simulated day, the fleet-pooled
        ``run.*`` summary means.
    duration_s / record_every_n:
        The campaign horizon and the decimation actually used.
    """

    result: object
    groups: list[dict]
    days: list[dict]
    duration_s: float
    record_every_n: int

    def summary(self) -> dict:
        """JSON-safe campaign digest (no arrays; CLI/export friendly)."""
        return {
            "duration_s": self.duration_s,
            "record_every_n": self.record_every_n,
            "n_monitors": int(self.result.n_monitors),
            "groups": [
                {k: v for k, v in group.items()}
                for group in self.groups
            ],
            "days": list(self.days),
        }


def _window_means(rows) -> dict:
    """Per-window ``run.*`` summary means (pooled over the group rows)."""
    return {name: stats["mean"]
            for name, stats in rows.summary().items()
            if name != "run.time_s"}


def run_campaign(fleet, *, duration_s: float | None = None,
                 base_profile: Profile | None = None,
                 demand: str = "household",
                 record_every_n: int = 20,
                 numerics: str = "exact",
                 checkpoint_dir=None,
                 resume: bool = False) -> CampaignReport:
    """Run a scenario campaign described by a scenario-tagged FleetSpec.

    Each :class:`~repro.runtime.RigSpec` entry's ``scenario`` tag (a
    builtin name, a :class:`ScenarioSpec`, or None for baseline) picks
    that entry's event schedule.  The fleet is materialized with the
    spec's seed plumbing and split into one leg per scenario schedule;
    each leg advances window-by-window on one
    :class:`~repro.runtime.mixed.MixedEngine` over its rigs (in
    position order), splitting exactly at the event boundaries
    (absolute step offsets) — so each window's ``run.*`` summary
    isolates one event configuration, and a rig's trace is
    bit-identical to running its (config group, scenario) pair alone
    over the same horizon.  Each pair's window means pool that config
    group's rows of the leg window.

    Parameters
    ----------
    fleet:
        The :class:`~repro.runtime.FleetSpec` (scenario tags welcome —
        this is the surface that consumes them).
    duration_s:
        Campaign horizon; required unless ``base_profile`` is given
        (whose duration then rules).
    base_profile:
        Explicit base line profile; default is the ``demand`` generator
        over ``duration_s``.
    demand:
        ``"household"`` or ``"station"`` — the generator used when no
        ``base_profile`` is given.
    record_every_n:
        Loop ticks between recorded points (default 20).
    numerics:
        Forwarded to every group engine.
    checkpoint_dir:
        Durability root (default None: no disk artifacts).  The
        campaign checkpoints its state to
        ``<checkpoint_dir>/campaign.ckpt`` after every completed
        window; the artifact is deleted on success.
    resume:
        Continue from the checkpoint a previous (killed) campaign left
        under ``checkpoint_dir``.  Completed legs and windows are
        skipped; the final report is bit-identical to an uninterrupted
        run.

    Raises
    ------
    ConfigurationError
        On a missing horizon, an unknown demand kind, unknown scenario
        names, or anything the engines refuse.
    CheckpointError
        When resuming: ``reason="missing"`` without a checkpoint,
        ``reason="kind"`` if it holds no mixed engine (a campaign
        checkpoint from before legs ran on one holds a batch engine),
        ``reason="mismatch"`` if it belongs to a different campaign
        configuration.
    """
    # Lazy runtime imports: station must not pull repro.runtime at
    # module-import time (cycle; see module docstring).
    from repro.runtime import FleetSpec, MixedEngine, RunResult
    from repro.runtime.checkpoint import WindowedRun, run_fingerprint
    from repro.runtime.kernels import resolve_numerics

    if not isinstance(fleet, FleetSpec):
        raise ConfigurationError(
            f"run_campaign takes a FleetSpec, got {type(fleet).__name__}")
    if base_profile is None:
        if duration_s is None:
            raise ConfigurationError(
                "pass duration_s (for a generated demand profile) or "
                "base_profile")
        if demand not in _DEMANDS:
            raise ConfigurationError(
                f"unknown demand {demand!r}; one of {sorted(_DEMANDS)}")
        base_profile = _DEMANDS[demand](float(duration_s))
        days = getattr(base_profile, "campaign_days", 1)
    else:
        if duration_s is not None and \
                float(duration_s) != float(base_profile.duration_s):
            raise ConfigurationError(
                "duration_s conflicts with base_profile.duration_s; "
                "pass one of them")
        days = 1
    horizon_s = float(base_profile.duration_s)
    dt = fleet.dt_s
    if record_every_n < 1:
        raise ConfigurationError("record_every_n must be >= 1")
    total_steps = int(round(horizon_s / dt))
    if total_steps < 1:
        raise ConfigurationError("campaign horizon shorter than one tick")
    if resume and checkpoint_dir is None:
        raise ConfigurationError(
            "resume=True requires checkpoint_dir (the campaign "
            "checkpoint to pick up)")

    seeds = fleet.monitor_seeds()
    rigs = fleet.materialize(seeds)

    # Legs: one per scenario schedule, holding its rigs in position
    # order.  Each leg runs on one MixedEngine, which splits it into
    # config groups.
    legs: dict[tuple, dict] = {}
    for pos, tag in enumerate(fleet.scenarios()):
        scenario = resolve_scenario(tag, horizon_s)
        leg = legs.setdefault((scenario.name, scenario.events),
                              {"scenario": scenario, "positions": []})
        leg["positions"].append(pos)

    # The whole campaign is one windowed run over its legs, each over
    # the full horizon.  Completed legs travel inside the checkpoint
    # state; legs the crash never reached re-materialize
    # deterministically from their seeds, so only the in-flight engine
    # rides the artifact.
    checkpoint_path = (Path(checkpoint_dir) / "campaign.ckpt"
                       if checkpoint_dir is not None else None)
    fingerprint = run_fingerprint(
        base_profile, total_steps, record_every_n, resolve_numerics(numerics),
        fleet=fleet.to_dict())
    if resume:
        run, state = WindowedRun.restore(checkpoint_path, fingerprint,
                                         expect_kind="mixed")
        completed, current = list(state["completed"]), state["current"]
    else:
        run = WindowedRun(None, base_profile, len(legs) * total_steps,
                          record_every_n=record_every_n,
                          checkpoint_path=checkpoint_path,
                          fingerprint=fingerprint)
        completed, current = [], None

    with get_tracer().span("station.campaign", n_monitors=len(rigs),
                           n_legs=len(legs), duration_s=horizon_s):
        for li, leg in enumerate(legs.values()):
            if li < len(completed):
                continue
            scenario = leg["scenario"]
            run.profile = ScenarioProfile(base_profile, scenario.events)
            # Window boundaries at the event edges, as absolute steps
            # (the same rounding used to label window activity below —
            # edge times carry float dust from fraction-of-horizon
            # placements, so everything compares in step space).
            cuts = {0, total_steps}
            edges = []
            for event in scenario.events:
                start = int(round(event.at_s / dt))
                end = int(round((event.at_s + event.duration_s) / dt))
                edges.append((event.kind, start, end))
                for step in (start, end):
                    if 0 < step < total_steps:
                        cuts.add(step)
            bounds = sorted(cuts)
            if current is not None:
                # The restored engine is the in-flight leg's.
                windows = list(current["windows"])
                window_rows = list(current["window_rows"])
                first_window = current["next_window"]
                current = None
            else:
                run.engine = MixedEngine([rigs[pos]
                                          for pos in leg["positions"]],
                                         numerics=numerics)
                windows = [[] for _ in run.engine.groups]
                window_rows = []
                first_window = 0
            last_window = len(bounds) - 2
            for wi in range(first_window, last_window + 1):
                lo, hi = bounds[wi], bounds[wi + 1]
                rows = run.advance(hi - lo)
                active = sorted({kind for kind, start, end in edges
                                 if start < hi and end > lo})
                window_rows.append(rows)
                # Each config group's means come from its own rows.
                for (_, local), group_windows in zip(run.engine.groups,
                                                     windows):
                    group_windows.append({
                        "start_s": lo * dt, "end_s": hi * dt,
                        "active": active,
                        "means": _window_means(rows.take(list(local))),
                    })
                if wi < last_window:
                    progress = {"windows": windows,
                                "window_rows": window_rows,
                                "next_window": wi + 1}
                else:
                    completed.append(_finish_leg(
                        leg, run.engine.groups, windows, window_rows))
                    progress = None
                run.checkpoint({"completed": completed,
                                "current": progress})
        blocks = [entry["block"] for entry in completed]
        if len(blocks) == 1:
            result = blocks[0]
        else:
            result = RunResult.concat(
                blocks, axis="fleet",
                indices=[leg["positions"] for leg in legs.values()])
        # In the order (config group, scenario) pairs first appear in
        # the fleet.
        group_reports = sorted(
            (report for entry in completed for report in entry["reports"]),
            key=lambda report: report["positions"][0])
        # Per fleet row: its (config group, scenario) pair and its rank
        # among that pair's rows.
        provenance = [()] * len(rigs)
        for report in group_reports:
            label = f"{report['config_key']}:{report['scenario']}"
            for rank, pos in enumerate(report["positions"]):
                provenance[pos] = (label, rank)
        result._provenance = provenance

    registry = get_registry()
    if registry.enabled:
        registry.counter("station.campaign.runs").inc()
        registry.gauge("station.campaign.groups").set(len(group_reports))
    get_event_log().emit("station.campaign", n_monitors=len(rigs),
                         n_groups=len(group_reports), duration_s=horizon_s)

    run.finish()
    day_reports = _day_rollups(result, horizon_s, days)
    return CampaignReport(result=result, groups=group_reports,
                          days=day_reports, duration_s=horizon_s,
                          record_every_n=record_every_n)


def _finish_leg(leg: dict, groups: list, windows: list[list[dict]],
                window_rows: list) -> dict:
    """A finished leg's per-config-group reports (with per-window deltas
    vs each group's first, pre-event window) and its merged trace
    block."""
    from repro.runtime import RunResult  # lazy: see module docstring
    scenario = leg["scenario"]
    reports = []
    for (key, local), group_windows in zip(groups, windows):
        baseline_means = group_windows[0]["means"]
        for window in group_windows:
            window["deltas"] = {
                name: window["means"][name] - baseline_means[name]
                for name in window["means"]}
        reports.append({
            "scenario": scenario.name,
            "config_key": key,
            "positions": [leg["positions"][row] for row in local],
            "events": [event.to_dict() for event in scenario.events],
            "windows": group_windows,
        })
    block = RunResult.concat(window_rows, axis="time") \
        if len(window_rows) > 1 else window_rows[0]
    return {"reports": reports, "block": block}


def _day_rollups(result, horizon_s: float, days: int) -> list[dict]:
    """Pooled ``run.*`` means per simulated day of the campaign."""
    time_s = np.asarray(result.time_s, dtype=float)
    if time_s.size == 0 or days < 1:
        return []
    day_span = horizon_s / days
    rollups = []
    for day in range(days):
        lo, hi = day * day_span, (day + 1) * day_span
        mask = (time_s > lo) & (time_s <= hi + 1e-12)
        if not mask.any():
            continue
        day_means = {}
        for name in ("true_speed_mps", "reference_mps", "measured_mps",
                     "pressure_pa", "temperature_k", "bubble_coverage"):
            field_rows = np.asarray(getattr(result, name), dtype=float)
            day_means[f"run.{name}"] = float(field_rows[:, mask].mean())
        rollups.append({"day": day, "start_s": lo, "end_s": hi,
                        "means": day_means})
    return rollups
