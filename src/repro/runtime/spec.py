"""One declarative fleet description: :class:`FleetSpec` / :class:`RigSpec`.

Before this module, every fleet-facing surface grew its own spelling of
"N monitors built like *this*": ``characterize_meter_pool(n_meters=...)``,
``Session(n_monitors=..., loop_rate_hz=..., ...)``, per-call build
kwargs on the service ``attach``.  A :class:`FleetSpec`
replaces all of them: an ordered tuple of :class:`RigSpec` entries, each
carrying a per-rig build configuration, a replication ``count``, an
optional explicit ``seed`` and an optional scenario tag — accepted
uniformly by :class:`repro.runtime.Session`,
:func:`repro.station.characterize_meter_pool`, the service facade
(:func:`repro.run` / :func:`repro.connect`), the CLI, and
:func:`repro.station.run_campaign`.

Seed derivation is bit-compatible with the classic ``Session`` plumbing:
the fleet seed spawns one :class:`numpy.random.SeedSequence` child per
position in caller order, and a rig entry with an explicit ``seed``
re-derives its own positions from that seed instead.  A homogeneous
one-entry spec therefore reproduces ``Session(n_monitors=n, seed=s)``
exactly, monitor for monitor.

Scenario tags (a builtin scenario name or a
:class:`repro.station.campaign.ScenarioSpec`) are carried verbatim;
only :func:`repro.station.run_campaign` consumes them — plain run
surfaces refuse scenario-bearing specs rather than silently ignoring
the events.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["FleetSpec", "RigSpec"]

def _scenario_to_json(scenario):
    """JSON-safe form of a scenario tag (name string or spec dict)."""
    if scenario is None or isinstance(scenario, str):
        return scenario
    to_dict = getattr(scenario, "to_dict", None)
    if to_dict is not None:
        return to_dict()
    return getattr(scenario, "name", repr(scenario))


def _scenario_from_json(payload):
    """Inverse of :func:`_scenario_to_json` (dicts become ScenarioSpec)."""
    if payload is None or isinstance(payload, str):
        return payload
    # Lazy: campaign lives in repro.station; importing it here at module
    # level would be a spec -> station -> runtime cycle.
    from repro.station.campaign import ScenarioSpec
    return ScenarioSpec.from_dict(payload)


@dataclass(frozen=True)
class RigSpec:
    """One fleet entry: a build configuration replicated ``count`` times.

    Parameters
    ----------
    count:
        How many monitors to build from this entry (>= 1).
    seed:
        Optional explicit seed for this entry; its monitors' seeds are
        spawned from it instead of the fleet seed, so an entry can be
        pinned independently of its position.
    scenario:
        Optional scenario tag — a builtin scenario name (see
        :data:`repro.station.campaign.SCENARIO_NAMES`) or a
        :class:`repro.station.campaign.ScenarioSpec`.  Consumed only by
        :func:`repro.station.run_campaign`.
    loop_rate_hz / overtemperature_k / output_bandwidth_hz /
    use_pulsed_drive / calibration_speeds_cmps / fast_calibration /
    use_cache:
        Forwarded to
        :func:`repro.station.scenarios.build_calibrated_monitor`,
        mirroring the classic :class:`~repro.runtime.Session` knobs.
    """

    count: int = 1
    seed: int | None = None
    scenario: object | None = None
    loop_rate_hz: float = 1000.0
    overtemperature_k: float = 5.0
    output_bandwidth_hz: float = 0.1
    use_pulsed_drive: bool = True
    calibration_speeds_cmps: tuple[float, ...] | None = None
    fast_calibration: bool = False
    use_cache: bool = True

    def __post_init__(self) -> None:
        """Validate the count and freeze the calibration-speed list."""
        if self.count < 1:
            raise ConfigurationError("RigSpec.count must be >= 1")
        if self.calibration_speeds_cmps is not None:
            object.__setattr__(self, "calibration_speeds_cmps",
                               tuple(float(v)
                                     for v in self.calibration_speeds_cmps))

    def build_kwargs(self) -> dict:
        """Keyword arguments for ``build_calibrated_monitor`` (sans seed)."""
        speeds = self.calibration_speeds_cmps
        return dict(
            loop_rate_hz=self.loop_rate_hz,
            overtemperature_k=self.overtemperature_k,
            output_bandwidth_hz=self.output_bandwidth_hz,
            use_pulsed_drive=self.use_pulsed_drive,
            calibration_speeds_cmps=list(speeds) if speeds else None,
            fast=self.fast_calibration,
            use_cache=self.use_cache,
        )

    def to_dict(self) -> dict:
        """JSON-safe dict form (round-trips through :meth:`from_dict`)."""
        speeds = self.calibration_speeds_cmps
        return {
            "count": self.count,
            "seed": self.seed,
            "scenario": _scenario_to_json(self.scenario),
            "loop_rate_hz": self.loop_rate_hz,
            "overtemperature_k": self.overtemperature_k,
            "output_bandwidth_hz": self.output_bandwidth_hz,
            "use_pulsed_drive": self.use_pulsed_drive,
            "calibration_speeds_cmps":
                list(speeds) if speeds is not None else None,
            "fast_calibration": self.fast_calibration,
            "use_cache": self.use_cache,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RigSpec":
        """Rebuild a RigSpec from its :meth:`to_dict` form."""
        data = dict(payload)
        data["scenario"] = _scenario_from_json(data.get("scenario"))
        return cls(**data)


@dataclass(frozen=True)
class FleetSpec:
    """An ordered, seeded description of a (possibly mixed) fleet.

    Attributes
    ----------
    rigs:
        The fleet entries in caller order; positions expand entry by
        entry (entry 0's monitors first).
    seed:
        Fleet seed; per-position seeds are spawned from it exactly as
        ``Session(n_monitors=..., seed=...)`` spawns them, so a
        one-entry default spec is bit-compatible with the classic
        session fleet.
    """

    rigs: tuple[RigSpec, ...] = field(default_factory=tuple)
    seed: int = 42

    def __post_init__(self) -> None:
        """Normalize the entry sequence and refuse an empty fleet."""
        entries = tuple(self.rigs)
        if not entries:
            raise ConfigurationError("FleetSpec needs at least one RigSpec")
        for entry in entries:
            if not isinstance(entry, RigSpec):
                raise ConfigurationError(
                    f"FleetSpec.rigs entries must be RigSpec, got "
                    f"{type(entry).__name__}")
        object.__setattr__(self, "rigs", entries)

    @classmethod
    def homogeneous(cls, n_monitors: int = 1, seed: int = 42,
                    **rig_kwargs) -> "FleetSpec":
        """One-entry spec: ``n_monitors`` copies of a single build.

        ``rig_kwargs`` are :class:`RigSpec` build fields
        (``loop_rate_hz``, ``overtemperature_k``, ``use_pulsed_drive``,
        ``fast_calibration``, ...).  The classic
        ``Session(n_monitors=n, seed=s, **build)`` spelled as a spec.
        """
        if n_monitors < 1:
            raise ConfigurationError("fleet needs at least one monitor")
        return cls(rigs=(RigSpec(count=int(n_monitors), **rig_kwargs),),
                   seed=int(seed))

    # -- introspection -------------------------------------------------------

    @property
    def n_monitors(self) -> int:
        """Total fleet size (sum of entry counts)."""
        return sum(entry.count for entry in self.rigs)

    @property
    def has_scenarios(self) -> bool:
        """True if any entry carries a scenario tag."""
        return any(entry.scenario is not None for entry in self.rigs)

    @property
    def loop_rate_hz(self) -> float:
        """The shared loop rate; mixed loop rates are refused.

        Raises
        ------
        ConfigurationError
            (``reason="heterogeneous"``) if entries disagree — one
            result needs one time base.
        """
        rates = {entry.loop_rate_hz for entry in self.rigs}
        if len(rates) > 1:
            raise ConfigurationError(
                f"fleet mixes loop rates {sorted(rates)}; one run needs "
                f"one shared time base", reason="heterogeneous")
        return next(iter(rates))

    @property
    def dt_s(self) -> float:
        """The shared loop tick in seconds (see :attr:`loop_rate_hz`)."""
        return 1.0 / float(self.loop_rate_hz)

    def flat(self) -> list[RigSpec]:
        """Per-position entry list (entry ``i`` repeated ``count`` times)."""
        out: list[RigSpec] = []
        for entry in self.rigs:
            out.extend([entry] * entry.count)
        return out

    def scenarios(self) -> list[object | None]:
        """Per-position scenario tags (None where an entry has none)."""
        return [entry.scenario for entry in self.flat()]

    def monitor_seeds(self) -> list[int]:
        """Per-position monitor seeds, bit-compatible with ``Session``.

        The fleet seed spawns one SeedSequence child per position in
        caller order; entries with an explicit ``seed`` then re-derive
        their own positions from that seed (one child per copy), so
        pinned entries are independent of their position in the fleet.
        """
        total = self.n_monitors
        children = np.random.SeedSequence(int(self.seed)).spawn(total)
        seeds = [int(child.generate_state(1)[0]) for child in children]
        pos = 0
        for entry in self.rigs:
            if entry.seed is not None:
                own = np.random.SeedSequence(int(entry.seed)).spawn(
                    entry.count)
                seeds[pos:pos + entry.count] = [
                    int(child.generate_state(1)[0]) for child in own]
            pos += entry.count
        return seeds

    # -- materialization -----------------------------------------------------

    def materialize(self, seeds: list[int] | None = None) -> list:
        """Build the fleet's rigs (one calibrated rig per position).

        The positions' calibrations are resolved together, as
        :meth:`repro.runtime.Session.calibrate` resolves them, so the
        campaigns of monitors built alike run on one batch engine.
        ``seeds`` overrides the derived :meth:`monitor_seeds`.
        Scenario tags are *not* consumed here — the rigs come back
        plain; event injection belongs to
        :func:`repro.station.run_campaign`.
        """
        # Lazy: station.scenarios pulls in the calibration stack; spec
        # stays importable without it at module-import time.
        from repro.station.scenarios import _assemble, _calibration_records
        if seeds is None:
            seeds = self.monitor_seeds()
        if len(seeds) != self.n_monitors:
            raise ConfigurationError(
                f"seed list has {len(seeds)} entries for a fleet of "
                f"{self.n_monitors}")
        builds = [dict(seed=s, **entry.build_kwargs())
                  for entry, s in zip(self.flat(), seeds)]
        return [_assemble(record, **kwargs).rig for record, kwargs in
                zip(_calibration_records(builds), builds)]

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dict form (round-trips through :meth:`from_dict`)."""
        return {"seed": self.seed,
                "rigs": [entry.to_dict() for entry in self.rigs]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetSpec":
        """Rebuild a FleetSpec from its :meth:`to_dict` form."""
        return cls(rigs=tuple(RigSpec.from_dict(entry)
                              for entry in payload.get("rigs", ())),
                   seed=int(payload.get("seed", 42)))

    def without_scenarios(self) -> "FleetSpec":
        """A copy with every scenario tag stripped (plain-run form)."""
        return FleetSpec(rigs=tuple(replace(entry, scenario=None)
                                    for entry in self.rigs),
                         seed=self.seed)
