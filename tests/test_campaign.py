"""Scenario campaigns: demand generators, event injection, rollups.

The acceptance criteria for the campaign layer: a 3-scenario campaign
(baseline + tank_leak + mains_burst) runs from both the Python API and
the CLI, with the injected-event steps visible in the per-window
``run.*`` summary deltas; window slicing at event boundaries is
bit-exact against an uninterrupted run of the same execution group;
and scenario-bearing specs are refused everywhere else.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.runtime import FleetSpec, RigSpec, RunResult
from repro.station.campaign import (EVENT_KINDS, SCENARIO_NAMES, Event,
                                    ScenarioProfile, ScenarioSpec,
                                    builtin_scenario, household_demand,
                                    resolve_scenario, run_campaign,
                                    station_demand)

pytestmark = pytest.mark.scenario

_FAST = dict(use_pulsed_drive=False, fast_calibration=True)


def test_event_vocabulary_is_complete():
    assert set(EVENT_KINDS) == {"slab_leak", "tank_leak", "mains_burst",
                                "low_flow_trickle", "freeze",
                                "caco3_episode"}
    assert set(SCENARIO_NAMES) == set(EVENT_KINDS) | {"baseline"}


def test_event_validation_and_round_trip():
    event = Event(kind="tank_leak", at_s=2.0, duration_s=1.5, magnitude=2.0)
    assert Event.from_dict(event.to_dict()) == event
    with pytest.raises(ConfigurationError):
        Event(kind="meteor_strike", at_s=0.0, duration_s=1.0)
    with pytest.raises(ConfigurationError):
        Event(kind="freeze", at_s=-1.0, duration_s=1.0)
    with pytest.raises(ConfigurationError):
        Event(kind="freeze", at_s=0.0, duration_s=0.0)


def test_builtin_scenarios_place_events_inside_horizon():
    for name in SCENARIO_NAMES:
        scenario = builtin_scenario(name, duration_s=10.0)
        assert scenario.name == name
        for event in scenario.events:
            assert 0.0 <= event.at_s < 10.0
            assert event.at_s + event.duration_s <= 10.0
    assert builtin_scenario("baseline", 10.0).events == ()
    with pytest.raises(ConfigurationError):
        builtin_scenario("meteor_strike", 10.0)


def test_resolve_scenario_accepts_all_tag_forms():
    spec = ScenarioSpec(name="custom", events=(
        Event(kind="freeze", at_s=1.0, duration_s=0.5),))
    assert resolve_scenario(None, 4.0).name == "baseline"
    assert resolve_scenario("tank_leak", 4.0).name == "tank_leak"
    assert resolve_scenario(spec, 4.0) is spec


def test_event_effects_shift_the_setpoints():
    base = household_demand(4.0)
    quiet = ScenarioProfile(base, ())
    t = 1.5
    for kind in EVENT_KINDS:
        # The trickle is a *floor*; a household base load already sits
        # above 0.01 m/s, so push the floor up to see the effect.
        magnitude = 100.0 if kind == "low_flow_trickle" else 1.0
        noisy = ScenarioProfile(base, (Event(kind=kind, at_s=1.0,
                                             duration_s=1.0,
                                             magnitude=magnitude),))
        assert noisy.setpoints(t) != quiet.setpoints(t), kind
        # Outside the event window the base profile rules.
        assert noisy.setpoints(3.5) == quiet.setpoints(3.5), kind


def test_demand_generators_modulate_speed():
    for generator in (household_demand, station_demand):
        profile = generator(6.0, days=2)
        assert profile.duration_s == pytest.approx(6.0)
        assert profile.campaign_days == 2
        speeds = [profile.setpoints(t)[0]
                  for t in np.linspace(0.1, 5.9, 40)]
        assert min(speeds) > 0.0
        assert max(speeds) / min(speeds) > 1.3  # diurnal swing survives


def test_three_scenario_campaign_shows_event_deltas():
    spec = FleetSpec(
        rigs=(RigSpec(**_FAST),
              RigSpec(scenario="tank_leak", **_FAST),
              RigSpec(scenario="mains_burst", **_FAST)),
        seed=123)
    report = run_campaign(spec, duration_s=4.0)
    assert report.result.n_monitors == 3
    by_scenario = {g["scenario"]: g for g in report.groups}
    assert set(by_scenario) == {"baseline", "tank_leak", "mains_burst"}

    assert len(by_scenario["baseline"]["windows"]) == 1

    leak = by_scenario["tank_leak"]["windows"]
    active = [w for w in leak if "tank_leak" in w["active"]]
    assert len(active) == 1
    # The injected +0.02 m/s * magnitude demand step is visible in the
    # window's measured-speed delta vs the pre-event window.
    assert active[0]["deltas"]["run.measured_mps"] > 0.01

    burst = by_scenario["mains_burst"]["windows"]
    active = [w for w in burst if "mains_burst" in w["active"]]
    assert len(active) == 1
    assert active[0]["deltas"]["run.pressure_pa"] < -1e4

    assert report.days and report.days[0]["day"] == 0
    json.dumps(report.summary())  # JSON-safe digest


def test_campaign_windows_are_bit_exact_vs_uninterrupted_run():
    """Cutting a group at event boundaries must not perturb one bit:
    the stitched scenario trace equals the same rigs advanced through
    the identical ScenarioProfile in one uninterrupted run."""
    from repro.runtime import BatchEngine

    spec = FleetSpec(rigs=(RigSpec(scenario="tank_leak", **_FAST),),
                     seed=321)
    report = run_campaign(spec, duration_s=4.0)

    # The demand generator's segment list accumulates float dust, so
    # the campaign's true horizon is duration_s only approximately —
    # resolve the scenario against the profile's own duration exactly
    # as run_campaign does, or the event onset lands one tick away.
    base = household_demand(4.0)
    events = builtin_scenario("tank_leak", float(base.duration_s)).events
    profile = ScenarioProfile(base, events)
    rigs = spec.without_scenarios().materialize()
    whole = BatchEngine(rigs).run(profile,
                                  record_every_n=report.record_every_n)
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert np.asarray(getattr(report.result, name)).tobytes() == \
            np.asarray(getattr(whole, name)).tobytes(), name


def test_campaign_groups_by_the_rig_signature(monkeypatch):
    """Each scenario leg's MixedEngine splits it with fleet_groups: one
    key is hashed per config group of each leg, not one per rig."""
    import repro.runtime.mixed as mixed

    calls = []
    real = mixed.config_group_key

    def counting(rig):
        calls.append(rig)
        return real(rig)

    monkeypatch.setattr(mixed, "config_group_key", counting)
    hot = dict(overtemperature_k=8.0, **_FAST)
    spec = FleetSpec(
        rigs=(RigSpec(count=2, **_FAST),
              RigSpec(scenario="tank_leak", **_FAST),
              RigSpec(**hot), RigSpec(scenario="tank_leak", **hot)),
        seed=77)
    report = run_campaign(spec, duration_s=2.0)
    # Two legs (baseline, tank_leak) of two config groups each; hashing
    # per rig would make five calls.
    assert len(calls) == 4
    assert [(g["config_key"] == report.groups[0]["config_key"],
             g["scenario"], g["positions"]) for g in report.groups] == [
        (True, "baseline", [0, 1]), (True, "tank_leak", [2]),
        (False, "baseline", [3]), (False, "tank_leak", [4])]


def _interleaved_spec():
    """Two build configs crossed with three scenarios, interleaved so
    every scenario leg holds both configs and no pair is contiguous."""
    hot = dict(overtemperature_k=8.0, **_FAST)
    return FleetSpec(
        rigs=(RigSpec(**_FAST), RigSpec(scenario="tank_leak", **hot),
              RigSpec(scenario="mains_burst", **_FAST), RigSpec(**hot),
              RigSpec(scenario="tank_leak", count=2, **_FAST),
              RigSpec(scenario="mains_burst", **hot),
              RigSpec(count=2, **_FAST)),
        seed=11)


def _per_pair_reference(spec, duration_s, every):
    """The campaign rebuilt pair by pair: each (config group, scenario)
    pair alone on its own BatchEngine, cut at its scenario's event
    edges.  Returns the merged result, the per-pair reports in
    first-appearance order and the per-row provenance."""
    from repro.runtime import BatchEngine
    from repro.runtime.mixed import fleet_groups

    base = household_demand(duration_s)
    horizon = float(base.duration_s)
    dt = spec.dt_s
    total = int(round(horizon / dt))
    rigs = spec.materialize()
    config = {pos: key for key, positions in fleet_groups(rigs).items()
              for pos in positions}
    pairs = {}
    for pos, tag in enumerate(spec.scenarios()):
        scenario = resolve_scenario(tag, horizon)
        pairs.setdefault((config[pos], scenario.name),
                         (scenario, []))[1].append(pos)
    blocks, reports, provenance = [], [], [None] * len(rigs)
    for (key, name), (scenario, positions) in pairs.items():
        engine = BatchEngine([rigs[pos] for pos in positions])
        profile = ScenarioProfile(base, scenario.events)
        edges = [(e.kind, int(round(e.at_s / dt)),
                  int(round((e.at_s + e.duration_s) / dt)))
                 for e in scenario.events]
        bounds = sorted({0, total} | {step for _, a, b in edges
                                      for step in (a, b) if 0 < step < total})
        windows, rows = [], []
        for lo, hi in zip(bounds, bounds[1:]):
            window = engine.advance(profile, hi - lo, record_every_n=every)
            rows.append(window)
            windows.append({
                "start_s": lo * dt, "end_s": hi * dt,
                "active": sorted({kind for kind, a, b in edges
                                  if a < hi and b > lo}),
                "means": {k: v["mean"] for k, v in window.summary().items()
                          if k != "run.time_s"}})
        for window in windows:
            window["deltas"] = {k: window["means"][k] - windows[0]["means"][k]
                                for k in window["means"]}
        reports.append({"scenario": name, "config_key": key,
                        "positions": positions,
                        "events": [e.to_dict() for e in scenario.events],
                        "windows": windows})
        blocks.append(RunResult.concat(rows, axis="time"))
        for rank, pos in enumerate(positions):
            provenance[pos] = (f"{key}:{name}", rank)
    result = RunResult.concat(blocks, axis="fleet",
                              indices=[p for _, p in pairs.values()])
    return result, reports, provenance


def _assert_same_campaign(got, want):
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert np.array_equal(getattr(got.result, name),
                              getattr(want.result, name)), name
    assert json.dumps(got.summary()) == json.dumps(want.summary())
    assert got.result.provenance() == want.result.provenance()


def test_interleaved_campaign_matches_per_pair_engines(tmp_path,
                                                        monkeypatch):
    """Scenario legs on one MixedEngine each give what every (config
    group, scenario) pair gives alone on its own BatchEngine — arrays,
    report (group order, positions, window means) and provenance ranks
    — and a resume from the checkpoint of every window cut gives the
    uninterrupted campaign."""
    from repro.station.campaign import CampaignReport, _day_rollups

    spec = _interleaved_spec()
    report = run_campaign(spec, duration_s=0.5)
    result, reports, provenance = _per_pair_reference(
        spec, 0.5, report.record_every_n)
    assert [(r["scenario"], r["positions"]) for r in reports] == [
        ("baseline", [0, 7, 8]), ("tank_leak", [1]),
        ("mains_burst", [2]), ("baseline", [3]), ("tank_leak", [4, 5]),
        ("mains_burst", [6])]
    result._provenance = provenance
    _assert_same_campaign(report, CampaignReport(
        result=result, groups=reports,
        days=_day_rollups(result, report.duration_s, 1),
        duration_s=report.duration_s, record_every_n=report.record_every_n))

    # Keep the checkpoint written at every window cut: 1 + 3 + 3
    # windows over the three legs, all but the last one checkpointed.
    path = tmp_path / "campaign.ckpt"
    cuts = []
    monkeypatch.setattr("repro.runtime.checkpoint.checkpoint_site",
                        lambda: cuts.append(path.read_bytes()))
    _assert_same_campaign(
        run_campaign(spec, duration_s=0.5, checkpoint_dir=tmp_path), report)
    assert len(cuts) == 6 and not path.exists()
    for blob in cuts:
        path.write_bytes(blob)
        _assert_same_campaign(
            run_campaign(spec, duration_s=0.5, checkpoint_dir=tmp_path,
                         resume=True), report)
        assert not path.exists()


def test_campaign_refusals():
    plain = FleetSpec(rigs=(RigSpec(**_FAST),), seed=1)
    with pytest.raises(ConfigurationError):
        run_campaign(plain)  # no horizon at all
    with pytest.raises(ConfigurationError):
        run_campaign(plain, duration_s=4.0, demand="industrial")
    with pytest.raises(ConfigurationError):
        run_campaign([object()], duration_s=4.0)  # not a FleetSpec
    with pytest.raises(ConfigurationError):
        run_campaign(plain, duration_s=3.0,
                     base_profile=household_demand(4.0))  # conflict


def test_cli_campaign_three_scenarios(tmp_path, capsys):
    out = tmp_path / "summary.json"
    code = main(["campaign", "--duration", "4",
                 "--scenarios", "baseline,tank_leak,mains_burst",
                 "--seed", "123", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "tank_leak" in text and "mains_burst" in text
    summary = json.loads(out.read_text())
    assert summary["n_monitors"] == 3
    deltas = [w["deltas"]["run.measured_mps"]
              for g in summary["groups"] if g["scenario"] == "tank_leak"
              for w in g["windows"] if "tank_leak" in w["active"]]
    assert deltas and deltas[0] > 0.01


def test_cli_campaign_rejects_unknown_scenario(capsys):
    assert main(["campaign", "--scenarios", "meteor_strike"]) == 2
    assert "meteor_strike" in capsys.readouterr().err


def test_cli_campaign_from_spec_file(tmp_path, capsys):
    spec = FleetSpec(rigs=(RigSpec(scenario="freeze", **_FAST),), seed=9)
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert main(["campaign", "--spec", str(path), "--duration", "4"]) == 0
    assert "freeze" in capsys.readouterr().out
