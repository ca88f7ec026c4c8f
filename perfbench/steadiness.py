"""Steadiness record: run every workload over several seeds.

    python3 perfbench/steadiness.py --runs 10 --first-seed 100 \\
        --out perfbench/STEADINESS.json

Runs the benchmark command of ``BENCHMARK.json`` once per seed on each
workload (``--trace 0``), then stores, per workload and end-to-end
metric, the values, their median and their spread: the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``)
as a share of the median, beside the metric's bound.  Each run's
provenance line (host, versions, raw wall-clock figures) is kept too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        help="limit to these workloads (repeatable)")
    parser.add_argument("--out", type=Path, default=None,
                        help="JSON record; entries for the workloads run "
                             "here replace those already in it")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    if args.out is not None and args.out.exists():
        # Re-measuring some workloads keeps the others' record.
        record["workloads"] = json.loads(args.out.read_text())["workloads"]
    for name in names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed} failed")
            result = json.loads(lines[-1])
            runs.append({"seed": seed,
                         "elapsed_s": time.perf_counter() - t0,
                         "result": result,
                         "provenance": json.loads(lines[-2])["provenance"]})
            print(f"{name} seed {seed}: {runs[-1]['elapsed_s']:.1f} s",
                  flush=True)
        metrics = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            metrics[metric] = {"median": statistics.median(values),
                               "spread": spread(values), "bound": bound,
                               "values": values}
            print(f"  {metric:20s} spread {metrics[metric]['spread']:.3f} "
                  f"(bound {bound})", flush=True)
        record["workloads"][name] = {"metrics": metrics, "runs": runs}
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
