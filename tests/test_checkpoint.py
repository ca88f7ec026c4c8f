"""Checkpoint/resume unit tests: artifact hygiene and bit-exact restarts.

The contract under test (``repro.runtime.checkpoint``): a checkpoint
is the pickled live engine between ``advance`` windows, so restoring it
and finishing the run is byte-identical to never having stopped —
for every engine kind, from arbitrary cut points, across real process
deaths of every windowed run kind (the SIGKILL tests at the bottom).
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.runtime import (BatchEngine, FleetSpec, MixedEngine, RunResult,
                           Session, ShardedEngine, WindowedRun,
                           load_checkpoint, run_durable, save_checkpoint)
from repro.runtime.checkpoint import CHECKPOINT_FORMAT_VERSION, engine_kind
from repro.station.campaign import run_campaign
from repro.station.profiles import staircase
from repro.station.scenarios import (build_calibrated_monitor,
                                     clear_calibration_cache)

pytestmark = pytest.mark.durability

_PROFILE = staircase([0.0, 70.0], dwell_s=0.25)  # 500 steps at 1 kHz
_TOTAL = 500
_EVERY = 10


def _rigs(n=2, base_seed=31337):
    seeds = FleetSpec.homogeneous(n, seed=base_seed).monitor_seeds()
    return [build_calibrated_monitor(seed=s, fast=True).rig for s in seeds]


def _fields(result):
    return {name: np.asarray(getattr(result, name))
            for name in ("time_s",) + type(result).STACKED_FIELDS}


def _assert_bit_equal(got, ref):
    a, b = _fields(got), _fields(ref)
    assert sorted(a) == sorted(b)
    for name in b:
        assert a[name].tobytes() == b[name].tobytes(), name


# -- artifact hygiene ---------------------------------------------------------


def test_engine_kind_dispatch():
    rigs = _rigs(2)
    assert engine_kind(rigs[0]) == "scalar"
    assert engine_kind(BatchEngine(_rigs(2))) == "batch"
    assert engine_kind(MixedEngine(_rigs(2))) == "mixed"
    assert engine_kind(ShardedEngine(_rigs(2), workers=2)) == "sharded"
    with pytest.raises(CheckpointError) as exc:
        engine_kind(object())
    assert exc.value.reason == "kind"


def test_save_load_round_trip(tmp_path):
    engine = BatchEngine(_rigs(2))
    engine.advance(_PROFILE, 123, record_every_n=_EVERY)
    path = save_checkpoint(engine, tmp_path / "a.ckpt",
                           meta={"note": "mid-run"})
    ckpt = load_checkpoint(path)
    assert ckpt.version == CHECKPOINT_FORMAT_VERSION
    assert ckpt.kind == "batch"
    assert ckpt.offset == 123
    assert ckpt.meta == {"note": "mid-run"}
    assert ckpt.engine.offset == 123


def test_load_missing_raises(tmp_path):
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(tmp_path / "nope.ckpt")
    assert exc.value.reason == "missing"


def test_load_corrupt_raises(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"garbage")
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert exc.value.reason == "corrupt"
    path.write_bytes(pickle.dumps({"magic": "wrong"}))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert exc.value.reason == "corrupt"


def test_load_version_mismatch_raises(tmp_path):
    path = save_checkpoint(BatchEngine(_rigs(1)), tmp_path / "v.ckpt")
    record = pickle.loads(path.read_bytes())
    record["version"] = CHECKPOINT_FORMAT_VERSION + 1
    path.write_bytes(pickle.dumps(record))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert exc.value.reason == "version"


def test_load_expect_kind_raises(tmp_path):
    path = save_checkpoint(BatchEngine(_rigs(1)), tmp_path / "k.ckpt")
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path, expect_kind="mixed")
    assert exc.value.reason == "kind"
    assert load_checkpoint(path, expect_kind="batch").kind == "batch"


# -- bit-exact resume ---------------------------------------------------------


@pytest.mark.parametrize("cut", [1, 237, 499])
def test_batch_resume_bit_identical(tmp_path, cut):
    ref = BatchEngine(_rigs(2)).run(_PROFILE, record_every_n=_EVERY)
    engine = BatchEngine(_rigs(2))
    first = engine.advance(_PROFILE, cut, record_every_n=_EVERY)
    save_checkpoint(engine, tmp_path / "cut.ckpt")
    restored = load_checkpoint(tmp_path / "cut.ckpt").engine
    rest = restored.advance(_PROFILE, _TOTAL - cut, record_every_n=_EVERY)
    _assert_bit_equal(RunResult.concat([first, rest], axis="time"), ref)


def test_run_durable_matches_plain_batch(tmp_path):
    ref = BatchEngine(_rigs(2)).run(_PROFILE, record_every_n=_EVERY)
    got = run_durable(MixedEngine(_rigs(2)), _PROFILE,
                      checkpoint_path=tmp_path / "run.ckpt",
                      record_every_n=_EVERY, window_steps=180)
    _assert_bit_equal(got, ref)
    assert not (tmp_path / "run.ckpt").exists()  # deleted on success


def test_run_durable_crash_resume_bit_identical(tmp_path, monkeypatch):
    """Kill run_durable after two windows; resume equals uninterrupted."""
    ref = run_durable(MixedEngine(_rigs(2)), _PROFILE,
                      checkpoint_path=tmp_path / "ref.ckpt",
                      record_every_n=_EVERY, window_steps=180)

    calls = {"n": 0}
    real_advance = MixedEngine.advance

    def dying_advance(self, *args, **kwargs):
        if calls["n"] == 2:
            raise KeyboardInterrupt("simulated process death")
        calls["n"] += 1
        return real_advance(self, *args, **kwargs)

    monkeypatch.setattr(MixedEngine, "advance", dying_advance)
    with pytest.raises(KeyboardInterrupt):
        run_durable(MixedEngine(_rigs(2)), _PROFILE,
                    checkpoint_path=tmp_path / "run.ckpt",
                    record_every_n=_EVERY, window_steps=180)
    monkeypatch.setattr(MixedEngine, "advance", real_advance)
    assert (tmp_path / "run.ckpt").exists()
    assert load_checkpoint(tmp_path / "run.ckpt").offset == 360

    got = run_durable(MixedEngine(_rigs(2)), _PROFILE,
                      checkpoint_path=tmp_path / "run.ckpt",
                      record_every_n=_EVERY, window_steps=180, resume=True)
    _assert_bit_equal(got, ref)
    assert not (tmp_path / "run.ckpt").exists()


def test_run_durable_resume_without_checkpoint_raises(tmp_path):
    with pytest.raises(CheckpointError) as exc:
        run_durable(MixedEngine(_rigs(1)), _PROFILE,
                    checkpoint_path=tmp_path / "none.ckpt",
                    record_every_n=_EVERY, resume=True)
    assert exc.value.reason == "missing"


def test_run_durable_fingerprint_mismatch_raises(tmp_path):
    engine = MixedEngine(_rigs(2))
    engine.advance(_PROFILE, 100, record_every_n=_EVERY)
    save_checkpoint(engine, tmp_path / "run.ckpt",
                    meta={"fingerprint": "not-this-run", "windows": []})
    with pytest.raises(CheckpointError) as exc:
        run_durable(MixedEngine(_rigs(2)), _PROFILE,
                    checkpoint_path=tmp_path / "run.ckpt",
                    record_every_n=_EVERY, resume=True)
    assert exc.value.reason == "mismatch"


def test_run_durable_validates_knobs(tmp_path):
    with pytest.raises(ConfigurationError):
        run_durable(MixedEngine(_rigs(1)), _PROFILE, checkpoint_path=tmp_path / "x",
                    window_steps=0)
    with pytest.raises(ConfigurationError):
        run_durable(MixedEngine(_rigs(1)), _PROFILE, checkpoint_path=tmp_path / "x",
                    record_every_n=0)
    with pytest.raises(ConfigurationError) as rigs:
        run_durable([], _PROFILE, checkpoint_path=tmp_path / "x")
    assert rigs.value.reason == "engine"
    engine = MixedEngine(_rigs(1))
    engine.advance(_PROFILE, 10, record_every_n=_EVERY)
    with pytest.raises(ConfigurationError) as advanced:
        run_durable(engine, _PROFILE, checkpoint_path=tmp_path / "x")
    assert advanced.value.reason == "engine"
    assert not (tmp_path / "x").exists()


# -- Session wiring -----------------------------------------------------------


def test_session_checkpoint_dir_parity_and_stats(tmp_path):
    spec = FleetSpec.homogeneous(2, seed=555, fast_calibration=True)
    with Session(fleet=spec) as plain:
        plain.calibrate()
        ref = plain.run(_PROFILE, record_every_n=_EVERY)
    # Cold LRU: the durable session must go through the disk store.
    clear_calibration_cache()
    with Session(fleet=spec, checkpoint_dir=tmp_path) as durable:
        durable.calibrate()
        got = durable.run(_PROFILE, record_every_n=_EVERY)
        stats = durable.stats()
    _assert_bit_equal(got, ref)
    assert stats["store"]["root"] == str(tmp_path / "store")
    # The durable session's calibrations were published to the store.
    assert stats["store"]["writes"] >= 1


def test_durable_run_keeps_serial_provenance(tmp_path):
    """A durable run joins its windows on the time axis; the join keeps
    the ``(group_key, row)`` labels the same fleet's serial run carries,
    through ``run_durable`` and a ``Session(checkpoint_dir=...)``."""
    serial = MixedEngine(_rigs(2)).run(_PROFILE, record_every_n=_EVERY)
    assert len(serial.provenance()) == 2
    durable = run_durable(MixedEngine(_rigs(2)), _PROFILE,
                          checkpoint_path=tmp_path / "run.ckpt",
                          record_every_n=_EVERY, window_steps=180)
    assert durable.provenance() == serial.provenance()
    spec = FleetSpec.homogeneous(2, seed=555, fast_calibration=True)
    with Session(fleet=spec) as plain:
        plain.calibrate()
        ref = plain.run(_PROFILE, record_every_n=_EVERY)
    with Session(fleet=spec, checkpoint_dir=tmp_path / "s") as session:
        session.calibrate()
        got = session.run(_PROFILE, record_every_n=_EVERY)
    assert len(ref.provenance()) == 2
    assert got.provenance() == ref.provenance()


def test_session_resume_requires_durable_run(tmp_path):
    one = FleetSpec.homogeneous(1, seed=1, fast_calibration=True)
    two = FleetSpec.homogeneous(2, seed=1, fast_calibration=True)
    with Session(fleet=one) as session:
        session.calibrate()
        with pytest.raises(ConfigurationError):
            session.run(_PROFILE, resume=True)  # no checkpoint_dir
    with Session(fleet=two, checkpoint_dir=tmp_path) as session:
        session.calibrate()
        with pytest.raises(ConfigurationError):
            session.run(_PROFILE, resume=True, workers=2)  # not serial


# -- the windowed-run driver --------------------------------------------------


def test_windowed_run_checkpoints_non_final_windows_and_finishes(tmp_path):
    ref = BatchEngine(_rigs(2)).run(_PROFILE, record_every_n=_EVERY)
    path = tmp_path / "w.ckpt"
    run = WindowedRun(BatchEngine(_rigs(2)), _PROFILE, _TOTAL,
                      record_every_n=_EVERY, checkpoint_path=path,
                      fingerprint="fp")
    windows = [run.advance(300)]
    run.checkpoint({"windows": windows})
    assert load_checkpoint(path).meta["done"] == 300
    windows.append(run.advance(300))  # clamped to the 200 steps left
    assert run.complete and run.done == _TOTAL
    run.checkpoint({"windows": windows})  # final window: no snapshot
    assert load_checkpoint(path).meta["done"] == 300
    run.finish()
    assert not path.exists()
    _assert_bit_equal(RunResult.concat(windows, axis="time"), ref)


def test_windowed_run_refuses_foreign_fingerprint(tmp_path):
    path = tmp_path / "w.ckpt"
    run = WindowedRun(BatchEngine(_rigs(1)), _PROFILE, _TOTAL,
                      record_every_n=_EVERY, checkpoint_path=path,
                      fingerprint="this-run")
    run.advance(100)
    run.checkpoint({"note": 1})
    with pytest.raises(CheckpointError) as exc:
        WindowedRun.restore(path, "another-run")
    assert exc.value.reason == "mismatch"
    restored, state = WindowedRun.restore(path, "this-run")
    assert state == {"note": 1}
    assert restored.done == restored.engine.offset == 100


def _campaign_checkpoint(path, engine, fingerprint):
    """A campaign-shaped checkpoint of ``engine`` 100 steps in."""
    run = WindowedRun(engine, _PROFILE, _TOTAL, record_every_n=_EVERY,
                      checkpoint_path=path, fingerprint=fingerprint)
    run.advance(100)
    run.checkpoint({"completed": [], "current": None})


def test_campaign_resume_refuses_foreign_checkpoint(tmp_path):
    _campaign_checkpoint(tmp_path / "campaign.ckpt", MixedEngine(_rigs(1)),
                         "not-this-campaign")
    fleet = FleetSpec.homogeneous(1, seed=3, fast_calibration=True)
    with pytest.raises(CheckpointError) as exc:
        run_campaign(fleet, duration_s=0.5, checkpoint_dir=tmp_path,
                     resume=True)
    assert exc.value.reason == "mismatch"


def test_campaign_resume_refuses_batch_engine_checkpoint(tmp_path):
    """A campaign checkpoint holding a BatchEngine (the layout from
    before each scenario leg ran on one MixedEngine) is refused by kind,
    before its fingerprint is read."""
    _campaign_checkpoint(tmp_path / "campaign.ckpt", BatchEngine(_rigs(1)),
                         "any-campaign")
    fleet = FleetSpec.homogeneous(1, seed=3, fast_calibration=True)
    with pytest.raises(CheckpointError) as exc:
        run_campaign(fleet, duration_s=0.5, checkpoint_dir=tmp_path,
                     resume=True)
    assert exc.value.reason == "kind"


def test_previous_format_version_refused(tmp_path):
    """A version-3 artifact (the row-shard sharded-engine layout) is
    refused.

    A version-3 sharded engine held contiguous row shards as ``_blobs``
    with their ``_sizes`` and no config groups; read as the current
    layout (one job blob per config group) it has no groups to advance
    or merge, so the version gate has to stop it before any engine
    state is used.
    """
    engine = ShardedEngine(_rigs(2), workers=2)
    engine.__dict__.clear()
    engine.__dict__.update(_offset=300, _workers=2, _max_retries=1,
                           _timeout_s=None, _closed=False,
                           _blobs=[b"shard-0", b"shard-1"], _sizes=[1, 1])
    path = tmp_path / "v3.ckpt"
    path.write_bytes(pickle.dumps({
        "magic": "repro-checkpoint", "version": 3, "kind": "sharded",
        "offset": 300, "meta": {"fingerprint": "x", "windows": []},
        "engine": engine}))
    assert CHECKPOINT_FORMAT_VERSION == 5
    with pytest.raises(CheckpointError) as exc:
        WindowedRun.restore(path, "x")
    assert exc.value.reason == "version"


def test_format_4_batch_engine_refused(tmp_path):
    """A version-4 batch engine (one DAC level table per bridge,
    ``_lev_a``/``_lev_b``) is refused: the current loop gathers both
    supplies from the one ``(2, N, K)`` table ``_lev`` it lacks."""
    engine = BatchEngine(_rigs(1))
    engine.run(_PROFILE)
    state = engine.__getstate__()
    lev = state.pop("_lev")
    state.update(_lev_a=lev[0], _lev_b=lev[1], _iota=np.arange(1))
    engine.__dict__.clear()
    engine.__dict__.update(state)
    path = tmp_path / "v4.ckpt"
    path.write_bytes(pickle.dumps({
        "magic": "repro-checkpoint", "version": 4, "kind": "batch",
        "offset": _TOTAL, "meta": {}, "engine": engine}))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert exc.value.reason == "version"


# -- process-death recovery, every windowed run kind -------------------------

#: A checkpointing service with two clients in one cohort; with
#: ``--resume`` it recovers the orphaned cohort and finishes it instead.
_SERVICE_CHILD = """
import asyncio, sys
import numpy as np
from repro import FleetService, FleetSpec, recover_cohorts, staircase

ckpt, out = sys.argv[1], sys.argv[2]
if sys.argv[3:] == ["--resume"]:
    (cohort,) = recover_cohorts(ckpt)
    results = cohort.resume()
else:
    async def main():
        profile = staircase([0.0, 60.0], dwell_s=1.0)
        async with FleetService(tick_steps=500,
                                checkpoint_dir=ckpt) as service:
            fleets = [FleetSpec.homogeneous(n, seed=seed,
                                            fast_calibration=True)
                      for n, seed in ((2, 11), (1, 12))]
            clients = [await service.attach(profile, fleet=fleet)
                       for fleet in fleets]

            async def drain(client):
                async for _ in client.snapshots():
                    pass
                return client.client_id, await client.result()

            return dict(await asyncio.gather(*map(drain, clients)))
    results = asyncio.run(main())
np.savez(out, **{f"{cid}.{name}": getattr(result, name)
                 for cid, result in results.items()
                 for name in ("time_s",) + result.STACKED_FIELDS})
"""

#: Per run kind: the command (checkpoint dir, output path), the
#: checkpoint artifact it leaves, and the output suffix.
_KINDS = {
    "campaign": (lambda ck, out: [
        sys.executable, "-m", "repro", "campaign", "--duration", "2",
        "--scenarios", "baseline,tank_leak", "--checkpoint-dir", str(ck),
        "--out", str(out)], "campaign.ckpt", ".json"),
    "durable": (lambda ck, out: [
        sys.executable, "-m", "repro", "fleet", "--n-monitors", "2",
        "--levels", "0,60", "--dwell", "1.5", "--checkpoint-dir", str(ck),
        "--out", str(out)], "run-0.ckpt", ".npz"),
    "service": (lambda ck, out: [
        sys.executable, "-c", _SERVICE_CHILD, str(ck), str(out)],
        "cohort-1.ckpt", ".npz"),
}


def _output_bytes(path: Path) -> dict:
    """Every array (or the whole JSON summary) of a run's output file."""
    if path.suffix == ".json":
        return {"summary": path.read_bytes()}
    with np.load(path) as data:
        return {name: data[name].tobytes() for name in data.files}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_sigkill_resume_bit_identical(tmp_path, kind):
    """SIGKILL a windowed run mid-flight; the resumed output is identical.

    ``REPRO_FAULT=kill:2`` hard-kills the process right after the
    driver's second checkpoint write — a real process death, not an
    exception — for a campaign, a ``Session(checkpoint_dir=...)``
    durable run and a checkpointing service cohort (resumed through
    ``recover_cohorts``).  The resumed output must equal an
    uninterrupted reference bit for bit, and the checkpoint must be
    gone afterwards.
    """
    command, artifact, suffix = _KINDS[kind]
    env = {**os.environ, "PYTHONPATH": "src"}
    env.pop("REPRO_FAULT", None)
    repo = Path(__file__).resolve().parent.parent

    def run(ck, out, *extra, **more_env):
        return subprocess.run(command(tmp_path / ck, tmp_path / out)
                              + list(extra), cwd=repo,
                              env={**env, **more_env},
                              capture_output=True, text=True)

    ref = run("ck-ref", "ref" + suffix)
    assert ref.returncode == 0, ref.stderr
    assert not (tmp_path / "ck-ref" / artifact).exists()

    killed = run("ck", "never" + suffix, REPRO_FAULT="kill:2")
    assert killed.returncode == -signal.SIGKILL, (killed.returncode,
                                                  killed.stderr)
    assert (tmp_path / "ck" / artifact).exists()
    assert not (tmp_path / ("never" + suffix)).exists()

    resumed = run("ck", "resumed" + suffix, "--resume")
    assert resumed.returncode == 0, resumed.stderr
    got = _output_bytes(tmp_path / ("resumed" + suffix))
    assert got and got == _output_bytes(tmp_path / ("ref" + suffix))
    assert not (tmp_path / "ck" / artifact).exists()
