"""State parity: every declared stage round-trips through its declaration.

Each signal-chain stage names its fields once (``STATE``, read and
written by :func:`repro.state.state_of` / :func:`repro.state.load_state`).
For every declared class the round trip builds two instances from the
same seed, steps one of them ``k`` times, loads its state into the
fresh one, steps both ``m`` more times and asserts equal outputs, equal
``state_of`` and equal plain attributes.  A live field left out of a
declaration leaves the fresh instance behind, so the outputs or the
plain attributes split.

A stage that drives other stages (the controller drives the sensor and
the platform, the estimator drives the controller) is loaded together
with every declared stage it reaches.
"""

from __future__ import annotations

import importlib
import math
import pkgutil

import numpy as np
import pytest

import repro
from repro.baselines.promag import Promag50
from repro.conditioning.direction import DirectionConfig, DirectionDetector
from repro.conditioning.drive import PulsedDrive
from repro.conditioning.flow_estimator import EstimatorConfig, FlowEstimator
from repro.errors import ConfigurationError
from repro.isif.afe import AFEConfig, AnalogFrontEnd
from repro.isif.channel import ChannelConfig, InputChannel
from repro.isif.dac import ThermometerDAC
from repro.isif.filters_analog import AntiAliasFilter
from repro.isif.fixed_point import QFormat
from repro.isif.iir import OnePoleLowpass
from repro.isif.pi_controller import PIConfig, PIController
from repro.isif.sigma_delta import BehavioralAdc
from repro.physics.carbonate import WaterChemistry
from repro.physics.turbulence import FlowNoise, OrnsteinUhlenbeck
from repro.runtime import MixedEngine
from repro.sensor.bubbles import BubbleConfig, BubbleModel
from repro.sensor.fouling import FoulingConfig, FoulingModel
from repro.sensor.maf import FlowConditions, MAFConfig, MAFSensor
from repro.state import load_state, state_of
from repro.station.line import LineConfig, WaterLine
from repro.station.profiles import hold
from repro.station.scenarios import (build_calibrated_monitor,
                                     clear_calibration_cache)
from repro.store import ArtifactStore

DT = 1e-3
Q = QFormat(int_bits=3, frac_bits=12)


def _conditions(i: int) -> FlowConditions:
    return FlowConditions(speed_mps=0.3 + 0.2 * math.sin(0.01 * i))


def _sensor(seed: int) -> MAFSensor:
    sensor = MAFSensor(MAFConfig(seed=seed))
    sensor.set_overtemperature(5.0)
    return sensor


def _monitor(seed: int):
    return build_calibrated_monitor(seed=seed, fast=True).monitor


def _afe_step(afe: AnalogFrontEnd, i: int):
    # Every fifth input overdrives the rails and the sticky clip flag is
    # read two steps later, so a round trip after step 24 carries it set.
    out = afe.process(5.0 if i % 5 == 4 else 1e-3 * math.sin(0.1 * i), DT)
    return out, afe.clipped if i % 5 == 1 else None


def _estimator_tc(seed: int) -> FlowEstimator:
    # Temperature compensation counts valid samples between Rt reads.
    # The first read switches spare channel 3 to unity gain; the round
    # trip carries that register state with channel 3's declaration.
    monitor = _monitor(seed)
    return FlowEstimator(monitor.controller, monitor.estimator.calibration,
                         EstimatorConfig(temperature_compensation=True,
                                         temperature_update_every=50))


def _channel_step(channel: InputChannel, i: int) -> float:
    # Firmware reprograms the gain mid-run, as the first Rt read does on
    # spare channel 3, so the round trip carries the register change.
    if i == 10:
        channel.registers.reg("CTRL").write_field("GAIN", 0)
        channel.apply_registers()
    return channel.acquire(1e-3 * math.sin(0.1 * i))


def _pi_step(pi: PIController, i: int) -> float:
    # Large errors saturate the output, so the anti-windup sign moves.
    return pi.step(3.0 * math.sin(0.05 * i))


#: name -> (build from a seed, one step returning the output, k, m).
CASES = {
    "MAFSensor": (
        _sensor,
        # 5 V drives the heater well past the 25 K nucleation superheat.
        lambda s, i: s.step(DT, 5.0, 4.5, FlowConditions(speed_mps=0.01)),
        40, 60),
    "WheatstoneBridge": (
        lambda seed: _sensor(seed).bridge_a,
        lambda b, i: (b.trim_for_overtemperature(5.0 + 0.01 * i),
                      b.heater_power_w(2.0, 52.0)),
        5, 5),
    "BubbleModel": (
        lambda seed: BubbleModel(BubbleConfig(), np.random.default_rng(seed)),
        lambda b, i: (b.step(DT, 320.0, 288.15, 3.0e5, 0.05, i % 50 < 40),
                      b.conductance_factor(), b.conductance_noise(DT)),
        30, 80),
    "FoulingModel": (
        lambda seed: FoulingModel(FoulingConfig()),
        lambda f, i: f.step(3600.0, WaterChemistry(), 300.0 + 0.1 * i,
                            288.15, 0.2),
        10, 10),
    "OrnsteinUhlenbeck": (
        lambda seed: OrnsteinUhlenbeck(0.05, 0.3, np.random.default_rng(seed)),
        lambda o, i: o.step(DT),
        25, 25),
    "FlowNoise": (
        lambda seed: FlowNoise(np.random.default_rng(seed)),
        lambda n, i: n.perturb(0.5 + 0.01 * i, DT),
        25, 25),
    "WaterLine": (
        lambda seed: WaterLine(LineConfig(seed=seed)),
        lambda line, i: line.step(DT, 0.5 + 0.01 * i, 2.0e5 + i, 290.0),
        25, 25),
    "AnalogFrontEnd": (
        lambda seed: AnalogFrontEnd(AFEConfig(), np.random.default_rng(seed)),
        _afe_step,
        25, 25),
    "AntiAliasFilter": (
        lambda seed: AntiAliasFilter(100.0, 1000.0),
        lambda f, i: f.step(math.sin(0.1 * i)),
        25, 25),
    "InputChannel": (
        lambda seed: InputChannel(ChannelConfig(seed=seed)),
        _channel_step,
        25, 25),
    "BehavioralAdc": (
        lambda seed: BehavioralAdc(rng=np.random.default_rng(seed)),
        lambda adc, i: adc.convert(0.1 * math.sin(0.1 * i)),
        25, 25),
    "OnePoleLowpass": (
        lambda seed: OnePoleLowpass(5.0, 1000.0),
        lambda f, i: f.step(math.sin(0.1 * i)),
        25, 25),
    "OnePoleLowpass-q": (
        lambda seed: OnePoleLowpass(5.0, 1000.0, qformat=Q),
        lambda f, i: f.step(math.sin(0.1 * i)),
        25, 25),
    "PIController": (
        lambda seed: PIController(PIConfig(kp=0.5, ki=50.0, dt_s=DT)),
        _pi_step,
        40, 60),
    "PIController-q": (
        lambda seed: PIController(PIConfig(kp=0.5, ki=50.0, dt_s=DT,
                                           qformat=Q)),
        _pi_step,
        40, 60),
    "ThermometerDAC": (
        lambda seed: ThermometerDAC(seed=seed, settling_time_s=5e-3),
        lambda d, i: d.update(37 * i % 4096, DT),
        25, 25),
    "CTAController": (
        lambda seed: _monitor(seed).controller,
        lambda c, i: c.step(_conditions(i)),
        # Pulsed drive, 1 s period, 30 % duty, 50 ms blanking: step 120
        # is mid-pulse and the next 300 steps cross into the off-phase.
        120, 300),
    "FlowEstimator": (
        lambda seed: _monitor(seed).estimator,
        lambda e, i: _step_estimator(e, i),
        120, 300),
    "FlowEstimator-tc": (
        _estimator_tc,
        lambda e, i: _step_estimator(e, i),
        120, 300),
    "DirectionDetector": (
        lambda seed: DirectionDetector(DirectionConfig()),
        lambda d, i: d.update(2.0 + 0.2 * math.sin(0.02 * i), 2.0),
        100, 200),
    "Promag50": (
        lambda seed: Promag50(seed=seed),
        lambda p, i: p.read(0.5 + 0.01 * i, DT),
        25, 25),
    "PulsedDrive": (
        lambda seed: PulsedDrive(),
        lambda d, i: d.tick(DT),
        120, 300),
}


def _step_estimator(estimator, i: int) -> float:
    telemetry = estimator.controller.step(_conditions(i))
    return estimator.update(telemetry)


def _declared_classes() -> set[str]:
    names = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == info.name
                    and "STATE" in vars(obj)):
                names.add(obj.__name__)
    return names


def _stages(obj, seen: set | None = None) -> list:
    """Every declared stage reachable from ``obj``, in attribute order."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    found = [obj] if hasattr(type(obj), "STATE") else []
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif type(obj).__module__.startswith("repro.") and hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        children = []
    for child in children:
        found += _stages(child, seen)
    return found


def _plain(value):
    """Generators as their bit-generator state, arrays as lists."""
    if isinstance(value, np.random.Generator):
        return value.bit_generator.state
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _plain_fields(obj) -> dict:
    """The stage's own scalar, array and generator attributes."""
    kinds = (bool, int, float, str, type(None), np.generic, np.ndarray,
             np.random.Generator)
    return {k: _plain(v) for k, v in vars(obj).items() if isinstance(v, kinds)}


def test_every_declared_class_has_a_round_trip_case():
    assert {name.split("-")[0] for name in CASES} == _declared_classes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_state_round_trip(name):
    build, step, k, m = CASES[name]
    stepped, fresh = build(7), build(7)
    for i in range(k):
        step(stepped, i)
    if name == "BubbleModel":
        assert stepped.coverage > 0.0
    if name == "MAFSensor":
        assert stepped.bubbles_a.coverage > 0.0
    if name == "PulsedDrive":
        # Past the blanking window, inside the 0.3 s on-phase.
        assert 0.05 < state_of(stepped)["t"] < 0.3
    if name in ("InputChannel", "FlowEstimator-tc"):
        # The gain switch happened in the stepped copy only.
        channel = (stepped if name == "InputChannel"
                   else stepped.controller.platform.channels[3])
        assert channel.config.afe.gain_index == 0
    sources, targets = _stages(stepped), _stages(fresh)
    assert [type(s) for s in sources] == [type(t) for t in targets]
    for source, target in zip(sources, targets):
        load_state(target, state_of(source))
    for i in range(k, k + m):
        assert step(fresh, i) == step(stepped, i), i
    for source, target in zip(sources, targets):
        assert _plain(state_of(target)) == _plain(state_of(source))
        assert _plain_fields(target) == _plain_fields(source)


def test_load_copies_instead_of_aliasing():
    stepped, fresh = _sensor(3), _sensor(3)
    for _ in range(40):
        stepped.step(DT, 5.0, 4.5, FlowConditions(speed_mps=0.01))
    load_state(fresh, state_of(stepped))
    assert (state_of(fresh)["bubbles_a"]["rng"]
            is not state_of(stepped)["bubbles_a"]["rng"])
    before = _plain(state_of(fresh))
    stepped.step(DT, 5.0, 4.5, FlowConditions(speed_mps=0.01))
    assert _plain(state_of(fresh)) == before


def _legacy_snapshot(state: dict) -> dict:
    """The 17-key sensor snapshot layout calibration artifacts used to hold."""
    return {
        "t_a": state["t_a"], "t_b": state["t_b"],
        "t_membrane": state["t_membrane"],
        "t_reference": state["t_reference"], "failed": state["failed"],
        "cov_a": state["bubbles_a"]["coverage"],
        "cov_b": state["bubbles_b"]["coverage"],
        "bub_rng_a": state["bubbles_a"]["rng"].bit_generator.state,
        "bub_rng_b": state["bubbles_b"]["rng"].bit_generator.state,
        "backside_x": state["backside_noise"]["x"],
        "backside_rng": state["backside_noise"]["rng"].bit_generator.state,
        "foul_a": state["fouling_a"]["thickness_m"],
        "foul_b": state["fouling_b"]["thickness_m"],
        "r_trim_a": state["bridge_a"]["r_trim_ohm"],
        "r_trim_b": state["bridge_b"]["r_trim_ohm"],
        "leak_a": state["bridge_a"]["leakage_conductance_s"],
        "leak_b": state["bridge_b"]["leakage_conductance_s"],
    }


@pytest.mark.parametrize("bad", ["legacy", "nested"])
def test_load_state_refuses_a_foreign_layout_without_writing(bad):
    stepped, target = _sensor(5), _sensor(5)
    for _ in range(40):
        stepped.step(DT, 5.0, 4.5, FlowConditions(speed_mps=0.01))
    state = state_of(stepped)
    if bad == "legacy":
        state = _legacy_snapshot(state)
    else:
        # Every top-level field intact, one nested part short a key.
        del state["bubbles_b"]["coverage"]
    before = _plain(state_of(target))
    with pytest.raises(ConfigurationError) as err:
        load_state(target, state)
    assert err.value.reason == "state"
    assert _plain(state_of(target)) == before


def test_store_artifact_in_the_old_snapshot_layout_is_a_clean_miss(tmp_path):
    """A calibration artifact holding the 17-key snapshot layout re-runs
    the campaign: the rig runs bit-identically to one built without a
    store, and the store then holds the declared layout."""
    kwargs = dict(seed=61, fast=True, use_pulsed_drive=False)
    store = ArtifactStore(tmp_path)
    clear_calibration_cache()
    try:
        build_calibrated_monitor(store=store, **kwargs)
        (key,) = store.keys("calibration")
        artifact = store.get("calibration", key)
        store.put("calibration", key, {
            "calibration": artifact["calibration"],
            "snapshot": _legacy_snapshot(artifact["snapshot"])})
        clear_calibration_cache()
        from_store = build_calibrated_monitor(store=store, **kwargs).rig
        no_store = build_calibrated_monitor(use_cache=False, **kwargs).rig
        republished = store.get("calibration", key)["snapshot"]
    finally:
        clear_calibration_cache()
    assert sorted(republished) == sorted(state_of(from_store.monitor.sensor))
    profile = hold(60.0, 0.3)
    a = MixedEngine([from_store]).run(profile)
    b = MixedEngine([no_store]).run(profile)
    assert np.array_equal(a.measured_mps, b.measured_mps)
    assert np.array_equal(a.reference_mps, b.reference_mps)
