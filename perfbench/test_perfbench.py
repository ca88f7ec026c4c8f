"""Self-tests for the benchmark at smoke size.

    python3 -m pytest perfbench -q

Shrunken copies of the workloads run the real set-up, timed phase,
parity check and metric derivation in a few seconds each.
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
import warnings
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Recorder  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TinySteady(W.FleetSteady):
    n_monitors = 2
    dwell_s = 0.05


class TinyDurable(W.FleetDurable):
    n_monitors = 2
    dwell_s = 0.4


class TinyService(W.ServiceArrivals):
    n_fleets = 2
    profile_s = 0.3


TINY = {"fleet-steady": TinySteady, "fleet-durable": TinyDurable,
        "service-arrivals": TinyService}


def execute(cls, trace: int, workdir: Path):
    rec = Recorder()
    workload = cls(3, workdir, rec)
    args = Namespace(workload=cls.name, seed=3, seconds=0.5, trace=trace)
    with warnings.catch_warnings():
        # Deprecated surfaces warn with FutureWarning; the benchmark
        # must use none of them.
        warnings.simplefilter("error", FutureWarning)
        return asyncio.run(run.execute(args, workload, rec,
                                       {"setup_s": []}))


def test_catalogue_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in SPEC["workloads"]} == set(W.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_names_match_catalogue(name, trace, tmp_path):
    metrics, attempted, failed = execute(TINY[name], trace, tmp_path)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(metrics) == {m["name"] for m in declared}
    for key, value in metrics.items():
        assert NAME.fullmatch(key)
        assert np.isfinite(float(value)), key
    assert attempted >= 1 and failed == 0
    if trace:
        assert metrics["trace.coverage"] > 0.0
    else:
        assert all(metrics[m] > 0 for m in metrics)


def perturbed(result):
    from repro import RunResult
    copy = RunResult(time_s=result.time_s.copy(), **{
        name: getattr(result, name).copy()
        for name in RunResult.STACKED_FIELDS})
    copy.measured_mps[:, -1] = np.nextafter(copy.measured_mps[:, -1], 1.0)
    return copy


def test_closed_loop_gate_rejects_perturbed_result(tmp_path):
    workload = TinySteady(3, tmp_path, Recorder())

    async def go():
        await workload.setup()
        phase = await workload.phase(0.0)
        outputs = phase.outputs * 2
        assert await workload.check(outputs) == 0
        assert await workload.check(outputs + [perturbed(outputs[0])]) == 1
        # A bad first result fails the oracle, so every copy fails.
        assert await workload.check([perturbed(outputs[0])] + outputs) == 3
        await workload.close()
    asyncio.run(go())


def test_service_gate_rejects_perturbed_window(tmp_path):
    workload = TinyService(3, tmp_path, Recorder())

    async def go():
        await workload.setup()
        phase = await workload.phase(0.5)
        clients = phase.outputs
        assert await workload.check(clients) == 0
        clients[0].windows[-1] = perturbed(clients[0].windows[-1])
        assert await workload.check(clients) == 1
        await workload.close()
    asyncio.run(go())


def test_arrival_schedule_is_a_pure_function_of_the_seed():
    a = W.arrival_schedule(5, 1.0, 10.0, 16)
    assert a == W.arrival_schedule(5, 1.0, 10.0, 16)
    assert a != W.arrival_schedule(6, 1.0, 10.0, 16)
    assert len(a) == 10
    offsets = [t for t, _ in a]
    assert offsets == sorted(offsets)
    assert all(0.0 <= t < 10.0 for t in offsets)
    assert all(0 <= k < 16 for _, k in a)


def test_tail_needs_ten_samples_beyond():
    assert W.tail(range(10)) is None
    pct, value = W.tail(range(100))
    assert pct == 90.0 and value == 89
    pct, value = W.tail(range(1000))
    assert pct == 99.0 and sum(v > value for v in range(1000)) >= 10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
