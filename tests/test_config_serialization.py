"""Round-trip tests for config serialization and the v2 cal image."""

import json

import pytest

from repro.conditioning.cta import CTAConfig
from repro.conditioning.monitor import MonitorConfig, WaterFlowMonitor
from repro.errors import CalibrationError, ConfigurationError
from repro.isif.fixed_point import QFormat
from repro.sensor.maf import MAFConfig
from repro.sensor.membrane import (
    ORGANIC_FILL,
    WATER_BACKSIDE,
    BacksideFill,
    Membrane,
)


def _json_roundtrip(d):
    return json.loads(json.dumps(d))


@pytest.mark.parametrize("config", [
    MAFConfig(),
    MAFConfig(seed=99, medium="air", enable_fouling=False,
              wake_peak_coupling=0.1),
    CTAConfig(),
    CTAConfig(overtemperature_k=8.0, qformat=None),
    CTAConfig(qformat=QFormat(4, 18)),
    MonitorConfig(),
    MonitorConfig(use_pulsed_drive=False, temperature_compensation=True,
                  cta=CTAConfig(ki=15_000.0)),
], ids=lambda c: type(c).__name__)
def test_config_roundtrip(config):
    image = _json_roundtrip(config.to_dict())
    assert type(config).from_dict(image) == config


def test_mafconfig_roundtrip_builds_identical_sensor():
    from repro.sensor.maf import MAFSensor
    cfg = MAFConfig(seed=7)
    clone = MAFConfig.from_dict(_json_roundtrip(cfg.to_dict()))
    a, b = MAFSensor(cfg), MAFSensor(clone)
    assert a.heater_a.resistance(288.15) == b.heater_a.resistance(288.15)
    assert a.reference.resistance(288.15) == b.reference.resistance(288.15)


def test_backside_fill_identity_restored():
    for canonical in (ORGANIC_FILL, WATER_BACKSIDE):
        restored = BacksideFill.from_dict(_json_roundtrip(canonical.to_dict()))
        assert restored is canonical
    custom = BacksideFill("aerogel", 0.02, 2.0)
    restored = BacksideFill.from_dict(custom.to_dict())
    assert restored == custom and restored is not ORGANIC_FILL


def test_membrane_roundtrip():
    membrane = Membrane(backside=WATER_BACKSIDE, heater_fraction=0.2)
    restored = Membrane.from_dict(_json_roundtrip(membrane.to_dict()))
    assert restored == membrane
    assert restored.backside is WATER_BACKSIDE


def test_from_dict_rejects_missing_fields():
    with pytest.raises(ConfigurationError):
        MAFConfig.from_dict({"seed": 1})
    with pytest.raises(ConfigurationError):
        CTAConfig.from_dict({"kp": 50.0})
    with pytest.raises(ConfigurationError):
        MonitorConfig.from_dict({"loop_rate_hz": 1000.0})


def test_from_dict_runs_validators():
    image = MAFConfig().to_dict()
    image["medium"] = "mercury"
    with pytest.raises(ConfigurationError):
        MAFConfig.from_dict(image)


def test_v2_calibration_image_roundtrip(tmp_path, shared_setup):
    image = {
        "format": "anemos-cal/2",
        **shared_setup.calibration.to_dict(),
        "monitor": shared_setup.monitor.config.to_dict(),
        "sensor": shared_setup.monitor.sensor.config.to_dict(),
    }
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(image))
    monitor = WaterFlowMonitor.from_calibration_file(path)
    assert monitor.config == shared_setup.monitor.config
    assert monitor.sensor.config == shared_setup.monitor.sensor.config
    assert monitor.estimator.calibration.law == shared_setup.calibration.law


def test_legacy_flat_image_loads_with_note(tmp_path, shared_setup):
    """A flat image from before ``anemos-cal/2`` carries no die seed or
    monitor config, so it is refused rather than guessed at."""
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(shared_setup.calibration.to_dict()))
    with pytest.raises(CalibrationError, match="re-run 'calibrate'"):
        WaterFlowMonitor.from_calibration_file(path)


def test_unknown_format_rejected(tmp_path, shared_setup):
    image = {**shared_setup.calibration.to_dict(), "format": "anemos-cal/99"}
    path = tmp_path / "future.json"
    path.write_text(json.dumps(image))
    with pytest.raises(CalibrationError):
        WaterFlowMonitor.from_calibration_file(path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(CalibrationError):
        WaterFlowMonitor.from_calibration_file(path)
