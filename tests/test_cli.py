"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def cal_file(tmp_path_factory):
    """A real (fast) calibration image produced by the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "cal.json"
    assert main(["calibrate", "--out", str(path), "--fast",
                 "--seed", "5"]) == 0
    return path


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "SELF-TEST PASS" in out


def test_calibrate_writes_valid_image(cal_file):
    image = json.loads(cal_file.read_text())
    assert image["coeff_a"] > 0.0
    assert image["coeff_b"] > 0.0
    assert 0.3 <= image["exponent"] <= 0.7


def test_measure_against_stored_calibration(cal_file, capsys):
    code = main(["measure", "--cal", str(cal_file),
                 "--speed-cmps", "100", "--duration", "8"])
    assert code == 0
    out = capsys.readouterr().out
    measured = float([line for line in out.splitlines()
                      if "measured speed" in line][0].split(":")[1]
                     .replace("cm/s", ""))
    assert measured == pytest.approx(100.0, rel=0.2)


def test_sweep_prints_all_levels(cal_file, capsys):
    code = main(["sweep", "--cal", str(cal_file),
                 "--levels", "20,120", "--dwell", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "20.0" in out
    assert "120.0" in out


def test_sweep_rejects_bad_levels(cal_file, capsys):
    assert main(["sweep", "--cal", str(cal_file),
                 "--levels", "abc"]) == 2
    assert main(["sweep", "--cal", str(cal_file), "--levels", ""]) == 2


def test_measure_missing_calibration_file(tmp_path):
    code = main(["measure", "--cal", str(tmp_path / "nope.json"),
                 "--speed-cmps", "50"])
    assert code == 1


def test_measure_corrupt_calibration(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"coeff_a": 1.0}))
    code = main(["measure", "--cal", str(bad), "--speed-cmps", "50"])
    assert code == 1


def test_record_writes_loadable_archive(tmp_path):
    from repro.station.rig import RigRecord
    out = tmp_path / "traces.npz"
    code = main(["record", "--out", str(out), "--levels", "20,80",
                 "--dwell", "3", "--seed", "5"])
    assert code == 0
    record = RigRecord.load(out)
    assert len(record) > 100
    assert record.true_speed_mps.max() > 0.5


def test_record_rejects_bad_levels(tmp_path):
    assert main(["record", "--out", str(tmp_path / "x.npz"),
                 "--levels", "nope"]) == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_fleet_serial_writes_archive(tmp_path, capsys):
    import numpy as np

    from repro.runtime import RunResult
    out = tmp_path / "fleet.npz"
    code = main(["fleet", "--n-monitors", "2", "--workers", "1",
                 "--levels", "0,60", "--dwell", "0.5", "--seed", "9",
                 "--out", str(out)])
    assert code == 0
    result = RunResult.load(out)
    assert result.n_monitors == 2
    assert np.isfinite(np.asarray(result.measured_mps)).all()
    assert "2 monitors" in capsys.readouterr().out


@pytest.mark.parallel
def test_fleet_sharded_archive_matches_serial(tmp_path):
    import numpy as np

    from repro.runtime import RunResult
    base = ["fleet", "--n-monitors", "2", "--levels", "0,60",
            "--dwell", "0.5", "--seed", "9"]
    serial_out = tmp_path / "serial.npz"
    sharded_out = tmp_path / "sharded.npz"
    assert main(base + ["--workers", "1", "--out", str(serial_out)]) == 0
    assert main(base + ["--workers", "2", "--out", str(sharded_out)]) == 0
    serial = RunResult.load(serial_out)
    sharded = RunResult.load(sharded_out)
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        assert np.array_equal(np.asarray(getattr(sharded, name)),
                              np.asarray(getattr(serial, name))), name


def test_fleet_rejects_bad_knobs():
    assert main(["fleet", "--workers", "0"]) == 2
    assert main(["fleet", "--n-monitors", "0"]) == 2
    assert main(["fleet", "--levels", "nope"]) == 2
    assert main(["fleet", "--levels", ""]) == 2


def test_fleet_from_spec_runs_mixed_fleet(tmp_path, capsys):
    import numpy as np

    from repro.runtime import FleetSpec, RigSpec, RunResult
    spec = FleetSpec(
        rigs=(RigSpec(use_pulsed_drive=False, fast_calibration=True),
              RigSpec(overtemperature_k=7.0, use_pulsed_drive=False,
                      fast_calibration=True)),
        seed=7)
    spec_path = tmp_path / "fleet.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    out = tmp_path / "mixed.npz"
    code = main(["fleet", "--spec", str(spec_path), "--levels", "0,60",
                 "--dwell", "0.5", "--out", str(out)])
    assert code == 0
    result = RunResult.load(out)
    assert result.n_monitors == 2
    assert np.isfinite(np.asarray(result.measured_mps)).all()
    assert "2 monitors" in capsys.readouterr().out
    # the spec fully describes the fleet: explicit size/seed conflict
    assert main(["fleet", "--spec", str(spec_path), "--seed", "9"]) == 2
    assert main(["fleet", "--spec", str(spec_path),
                 "--n-monitors", "3"]) == 2


@pytest.mark.service
def test_serve_streams_concurrent_clients(capsys):
    code = main(["serve", "--clients", "3", "--n-monitors", "1",
                 "--levels", "0,60", "--dwell", "0.4", "--seed", "9",
                 "--tick-steps", "300"])
    assert code == 0
    out = capsys.readouterr().out
    # all three clients streamed and landed in the shared cohort
    for client_id in ("c1", "c2", "c3"):
        assert client_id in out
    assert "3 clients completed" in out
    # 800 steps in 300-step ticks -> 3 engine ticks, one snapshot each
    assert "3 engine ticks, 9 snapshots" in out


@pytest.mark.service
def test_serve_rejects_bad_knobs():
    assert main(["serve", "--clients", "0"]) == 2
    assert main(["serve", "--n-monitors", "0"]) == 2
    assert main(["serve", "--levels", "nope"]) == 2
    # service knob validation surfaces as a ReproError exit
    assert main(["serve", "--tick-steps", "0"]) == 1
