"""The repository's benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload fleet-steady --seed 1 \\
        --seconds 10 --trace 0

Runs from the root of a source checkout (it imports ``src/repro``).
With ``--trace 0`` it sets the workload up several times from an empty
calibration LRU and store, runs the timed phase with observability off,
checks every output bit for bit, and prints the ``end_to_end`` metrics
of ``BENCHMARK.json``.  With ``--trace 1`` it sets up once, runs the
timed phase untraced and then traced (``tracing.Recorder``), and prints
the ``per_layer`` metrics.  The last stdout line is the result object;
the line before it records provenance.  Exits 1 if any output failed
its parity check, 2 if the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Per-layer metrics whose service values come from the untraced phase
#: of a traced run (they are client-observed latencies).
UNTRACED_SERVICE = ("service.first_window_p50_s", "service.window_gap_p50_s",
                    "service.window_gap_tail_s",
                    "service.window_gap_tail_pct", "service.window_gaps",
                    "service.generator_late_s")


def catalogue() -> dict:
    """``BENCHMARK.json``: the metric names and units this run prints."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def provenance(args, workload) -> dict:
    import multiprocessing

    import numpy

    import repro
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "start_method": multiprocessing.get_start_method(),
        "execution": workload.settings(),
    }


def end_to_end(phase, setups) -> dict:
    from workloads import peak_rss_mb
    from tracing import median
    return {
        "setup_s": median(setups),
        "samples_per_s": phase.samples / phase.busy_s,
        "latency_p50_s": median(phase.latencies),
        "cpu_us_per_sample": phase.cpu_s / phase.samples * 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }


async def execute(args, workload, rec, raw) -> tuple[dict, int, int]:
    """Run one workload; ``(metrics, attempted, failed)``.

    Unscaled wall-clock figures are added to ``raw``.
    """
    from hostspeed import HostClock
    from tracing import layer_metrics, median
    from workloads import SERVICE_ONLY, ServiceArrivals
    try:
        if not args.trace:
            setups = []
            for _ in range(workload.setup_repeats):
                clock = HostClock()
                with clock.lapping_per_rig():
                    await workload.setup()
                clock.lap()
                setups.append(clock.scaled_s)
                raw["setup_s"].append(clock.raw_s)
            phase = await workload.phase(args.seconds)
            raw.update(phase.raw)
            failed = await workload.check(phase.outputs)
            return (end_to_end(phase, setups), len(phase.outputs), failed)
        with rec.window():
            await workload.setup()
        base = await workload.phase(args.seconds)
        with rec.window():
            traced = await workload.phase(args.seconds)
        extra = await workload.reference()
        failed = await workload.check(base.outputs + traced.outputs)
        attempted = len(base.outputs) + len(traced.outputs)
    finally:
        await workload.close()
    extra["trace.overhead_ratio"] = (median(traced.latencies)
                                     / median(base.latencies) - 1.0)
    if isinstance(workload, ServiceArrivals):
        extra.update(traced.extra)
        extra.update({k: base.extra[k] for k in UNTRACED_SERVICE})
        tick = rec.histogram("service.tick.wall_s")
        extra["service.tick_p50_s"] = tick["p50"] if tick else 0.0
        extra["service.loop_busy_share"] = (tick["sum"] / traced.raw["wall_s"]
                                            if tick else 0.0)
        roots = "service.attach"
    else:
        extra.update({k: 0.0 for k in SERVICE_ONLY})
        roots = "session.run"
    return layer_metrics(rec, roots=roots, extra=extra), attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    spec = catalogue()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ.pop("REPRO_STORE", None)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tempfile
        tempfile.tempdir = None
        from tracing import Recorder
        from workloads import WORKLOADS
        rec = Recorder()
        workload = WORKLOADS[args.workload](args.seed, work, rec)
        info = provenance(args, workload)
        raw = {"setup_s": []}
        metrics, attempted, failed = asyncio.run(
            execute(args, workload, rec, raw))
        info["raw"] = raw
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:
            pass

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
            f"BENCHMARK.json")
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
