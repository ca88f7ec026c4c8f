"""Per-stage kernel profiler: accumulator, engine hooks, surfaces.

Covers the :class:`~repro.observability.profile.Profiler` primitive,
the batch-engine stage hooks (``kernel.plan``, ``kernel.ar1_block``,
``kernel.film``, ``kernel.chunk_loop``), bit-parity of profiled vs
unprofiled runs, the :meth:`RunResult.profile` / ``concat`` plumbing,
``Session.stats()["profile"]`` and the CLI ``--profile-out`` flag.
"""

import json

import numpy as np
import pytest

from repro import observability as obs
from repro.errors import ConfigurationError
from repro.observability import MetricsRegistry, Profiler
from repro.runtime import BatchEngine, RunResult
from repro.runtime.kernels import PROFILE_STAGES
from repro.station.profiles import hold
from repro.station.scenarios import build_calibrated_monitor


@pytest.fixture
def fresh_profiler():
    """Swap in a fresh enabled default profiler; restore afterwards."""
    old = obs.get_profiler()
    profiler = obs.set_profiler(
        Profiler(registry=MetricsRegistry(enabled=False), enabled=True))
    yield profiler
    obs.set_profiler(old)


def _rig(seed=11):
    return build_calibrated_monitor(seed=seed, fast=True).rig


# -- primitive ----------------------------------------------------------------


def test_disabled_profiler_is_a_no_op():
    profiler = Profiler(enabled=False)
    profiler.add("kernel.plan", 1.0, 1.0)
    with profiler.stage("kernel.plan"):
        pass
    profiler.merge({"kernel.plan": {"calls": 1, "wall_s": 1.0, "cpu_s": 1.0}})
    assert profiler.report() == {}


def test_add_accumulates_and_batches_calls():
    profiler = Profiler(registry=MetricsRegistry(enabled=False))
    profiler.add("kernel.film", 0.5, 0.25, calls=10)
    profiler.add("kernel.film", 0.5, 0.25, calls=5)
    assert profiler.report() == {
        "kernel.film": {"calls": 15, "wall_s": 1.0, "cpu_s": 0.5}}
    with pytest.raises(ConfigurationError):
        profiler.add("", 1.0)
    with pytest.raises(ConfigurationError):
        profiler.add(" padded ", 1.0)


def test_stage_context_manager_times_region():
    profiler = Profiler(registry=MetricsRegistry(enabled=False))
    with profiler.stage("outer"):
        sum(range(1000))
    report = profiler.report()
    assert report["outer"]["calls"] == 1
    assert report["outer"]["wall_s"] > 0.0


def test_registry_receives_profile_histograms():
    registry = MetricsRegistry(enabled=True)
    profiler = Profiler(registry=registry)
    profiler.add("kernel.plan", 0.5, 0.25)
    snap = registry.snapshot()
    assert snap["profile.kernel.plan.wall_s"]["count"] == 1
    assert snap["profile.kernel.plan.wall_s"]["sum"] == 0.5
    assert snap["profile.kernel.plan.cpu_s"]["sum"] == 0.25
    # A disabled registry sees no further observations (report-only).
    registry.enabled = False
    profiler.add("kernel.plan", 0.5, 0.25)
    assert registry.snapshot()["profile.kernel.plan.wall_s"]["count"] == 1
    assert profiler.report()["kernel.plan"]["calls"] == 2


def test_merge_is_accumulator_only():
    registry = MetricsRegistry(enabled=True)
    profiler = Profiler(registry=registry)
    profiler.merge({"kernel.film": {"calls": 7, "wall_s": 2.0, "cpu_s": 1.0}})
    profiler.merge({"kernel.film": {"calls": 3, "wall_s": 1.0, "cpu_s": 0.5}})
    assert profiler.report() == {
        "kernel.film": {"calls": 10, "wall_s": 3.0, "cpu_s": 1.5}}
    # Worker histograms arrive through the metrics merge, never here.
    assert "profile.kernel.film.wall_s" not in registry.names()


def test_reset_clears_stages():
    profiler = Profiler(registry=MetricsRegistry(enabled=False))
    profiler.add("kernel.plan", 1.0)
    profiler.reset()
    assert profiler.report() == {}


def test_set_profiler_validates():
    with pytest.raises(ConfigurationError):
        obs.set_profiler(object())


# -- engine hooks -------------------------------------------------------------


def test_profiled_engine_run_attributes_all_stages(fresh_profiler):
    result = BatchEngine([_rig()]).run(hold(50.0, 0.5))
    report = result.profile()
    assert set(report) == set(PROFILE_STAGES)
    # One film call per sample step (vectorized across the fleet).
    assert report["kernel.film"]["calls"] == 500
    for stage in PROFILE_STAGES:
        assert report[stage]["calls"] >= 1
        assert report[stage]["wall_s"] >= 0.0
        assert report[stage]["cpu_s"] >= 0.0
    # The default profiler accumulated the same stages.
    assert set(fresh_profiler.report()) == set(PROFILE_STAGES)


def test_profiling_does_not_change_the_traces(fresh_profiler):
    profiled = BatchEngine([_rig(seed=21)]).run(hold(50.0, 0.5))
    obs.get_profiler().enabled = False
    plain = BatchEngine([_rig(seed=21)]).run(hold(50.0, 0.5))
    assert plain.profile() == {}
    assert np.array_equal(np.asarray(profiled.time_s),
                          np.asarray(plain.time_s))
    for name in RunResult.STACKED_FIELDS:
        assert np.array_equal(np.asarray(getattr(profiled, name)),
                              np.asarray(getattr(plain, name))), name


def test_unprofiled_run_has_empty_report():
    result = BatchEngine([_rig(seed=22)]).run(hold(50.0, 0.5))
    assert result.profile() == {}


# -- RunResult plumbing -------------------------------------------------------


def _toy_result(n=1, m=3):
    time_s = np.arange(m, dtype=float)
    traces = {name: np.zeros((n, m)) for name in RunResult.STACKED_FIELDS}
    return RunResult(time_s=time_s, **traces)


def test_attach_profile_survives_copy_not_archive(tmp_path):
    result = _toy_result()
    result.attach_profile(
        {"kernel.plan": {"calls": 2, "wall_s": 1.0, "cpu_s": 0.5}})
    assert result.profile()["kernel.plan"]["calls"] == 2
    # profile() hands out copies, not the live dict
    result.profile()["kernel.plan"]["calls"] = 99
    assert result.profile()["kernel.plan"]["calls"] == 2
    # archives ignore the report: save/load round-trips the traces only
    path = tmp_path / "r.npz"
    result.save(path)
    assert RunResult.load(path).profile() == {}


def test_concat_sums_part_profiles():
    a = _toy_result().attach_profile(
        {"kernel.film": {"calls": 10, "wall_s": 1.0, "cpu_s": 0.5}})
    b = _toy_result().attach_profile(
        {"kernel.film": {"calls": 5, "wall_s": 0.5, "cpu_s": 0.25},
         "kernel.plan": {"calls": 1, "wall_s": 0.1, "cpu_s": 0.1}})
    merged = RunResult.concat([a, b])
    assert merged.n_monitors == 2
    report = merged.profile()
    assert report["kernel.film"] == {
        "calls": 15, "wall_s": 1.5, "cpu_s": 0.75}
    assert report["kernel.plan"]["calls"] == 1
    # unprofiled parts concat to an unprofiled whole
    assert RunResult.concat([_toy_result(), _toy_result()]).profile() == {}


# -- session and CLI surfaces -------------------------------------------------


def test_session_stats_exposes_profile(fresh_profiler):
    from repro.runtime import FleetSpec, Session
    from repro.station.scenarios import clear_calibration_cache

    clear_calibration_cache()
    with Session(fleet=FleetSpec.homogeneous(
            1, seed=33, fast_calibration=True)) as session:
        session.calibrate()
        result = session.run(hold(60.0, 0.5))
        stats = session.stats()
    assert set(stats["profile"]) == set(PROFILE_STAGES)
    assert stats["profile"]["kernel.film"]["calls"] == 500
    assert set(result.profile()) == set(PROFILE_STAGES)


def test_cli_profile_out(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "profile.json"
    code = main(["--profile-out", str(out), "fleet", "--n-monitors", "2",
                 "--levels", "0,50", "--dwell", "1.0", "--seed", "9"])
    assert code == 0
    report = json.loads(out.read_text())["stages"]
    assert set(report) >= set(PROFILE_STAGES)
    assert report["kernel.film"]["calls"] == 2000
    assert "profile written" in capsys.readouterr().out
    # the flag must not leave the default profiler enabled
    assert not obs.get_profiler().enabled
