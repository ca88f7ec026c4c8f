"""Command-line interface: drive the simulated instrument end to end.

    python -m repro selftest
    python -m repro calibrate --out cal.json [--seed N] [--fast]
    python -m repro measure --cal cal.json --speed-cmps 120 [--duration 10]
    python -m repro sweep --cal cal.json --levels 0,50,100,250
    python -m repro fleet --n-monitors 8 --workers 4 [--out traces.npz]
    python -m repro fleet --spec fleet.json [--workers 4]
    python -m repro fleet --checkpoint-dir ckpt/ [--resume]
    python -m repro campaign --duration 6 \
                             --scenarios baseline,tank_leak,mains_burst
    python -m repro campaign --spec campaign.json [--out summary.json]
    python -m repro campaign --checkpoint-dir ckpt/ [--resume]
    python -m repro serve --clients 8 --n-monitors 2 [--tick-steps 500]
                          [--http-port 8765] [--sample-every 0.5]
                          [--hold-open 20]
    python -m repro top --url http://127.0.0.1:8765 [--interval 1] [--once]
    python -m repro store inspect --dir store/ [--json]
    python -m repro store evict --dir store/ [--kind calibration] [--key K]

The CLI mirrors how a bench operator would use the real instrument:
power-on self-test, a calibration campaign against the reference meter
(saved as a JSON EEPROM image), then measurements against the stored
calibration.  ``fleet`` runs a whole fleet of monitors at once through
the batched runtime, optionally running its config groups as jobs in
worker processes (``--workers``); the traces are bit-identical for any
worker count.
With ``--spec`` the fleet comes from a JSON :class:`FleetSpec` image
instead of ``--n-monitors``/``--seed``, and a structurally mixed spec
sub-batches per config group (bit-identical per rig to running its
group alone).  ``campaign`` runs a scenario campaign — demand-profile
base load plus injected events (leaks, bursts, freezes, scaling
episodes) — over a scenario-tagged FleetSpec and prints the per-window
``run.*`` summary deltas.
``serve`` spins up the resident streaming service in-process and drives
it with concurrent clients — the asyncio demo of the ``repro.connect``
path, with every client's stream bit-identical to a standalone run.
With ``--http-port`` it also publishes the live observability plane
(``/metrics``, ``/health``, ``/ready``, ``/snapshot``; see
``docs/observability.md``), and ``top`` renders a live terminal
dashboard — per-cohort throughput, tick-latency percentiles and the
worst-health rigs — from those endpoints.

Durability (see ``docs/durability.md``): ``fleet`` and ``campaign``
accept ``--checkpoint-dir`` to snapshot progress after every engine
window and ``--resume`` to continue a killed run bit-identically from
its checkpoint; ``store`` inspects or evicts the on-disk artifact
store that ``--checkpoint-dir`` (and the ``REPRO_STORE`` environment
variable) layer under the in-process calibration cache.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.conditioning.monitor import WaterFlowMonitor
from repro.errors import ReproError
from repro.isif.platform import ISIFPlatform
from repro.observability import (enable as _enable_observability,
                                 export_jsonl, export_prometheus,
                                 get_profiler, get_registry)
from repro.sensor.maf import FlowConditions
from repro.station.scenarios import build_calibrated_monitor

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hot-wire MEMS water-flow monitor (DATE 2008) simulator")
    parser.add_argument(
        "--metrics-out", type=Path, default=None, metavar="PATH",
        help="enable observability and write the metrics snapshot here "
             "after the command (.prom -> Prometheus text format, "
             "anything else -> JSON lines)")
    parser.add_argument(
        "--profile-out", type=Path, default=None, metavar="PATH",
        help="enable the per-stage kernel profiler and write its JSON "
             "report here after the command (stages: kernel.plan, "
             "kernel.ar1_block, the per-sample loop regions kernel.dac, "
             "kernel.guards, kernel.reference, kernel.wake, kernel.film, "
             "kernel.fouling, kernel.bubbles, kernel.backside, "
             "kernel.heater, kernel.membrane, kernel.bridge, kernel.afe, "
             "kernel.anti_alias, kernel.adc, kernel.lpf and kernel.pi, "
             "then kernel.chunk_loop and kernel.estimator; merged across "
             "workers for parallel fleet runs)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("selftest", help="ISIF platform power-on self-test")

    cal = sub.add_parser("calibrate",
                         help="run the calibration campaign, save JSON image")
    cal.add_argument("--out", type=Path, required=True,
                     help="output JSON path")
    cal.add_argument("--seed", type=int, default=42, help="die/noise seed")
    cal.add_argument("--fast", action="store_true",
                     help="short settle windows (demo quality)")

    meas = sub.add_parser("measure",
                          help="measure a steady line with a stored calibration")
    meas.add_argument("--cal", type=Path, required=True,
                      help="calibration JSON from 'calibrate'")
    meas.add_argument("--speed-cmps", type=float, required=True,
                      help="true line speed to simulate [cm/s]")
    meas.add_argument("--duration", type=float, default=10.0,
                      help="measurement duration [s]")

    swp = sub.add_parser("sweep", help="measure a list of speed levels")
    swp.add_argument("--cal", type=Path, required=True)
    swp.add_argument("--levels", type=str, required=True,
                     help="comma-separated speeds [cm/s]")
    swp.add_argument("--dwell", type=float, default=8.0,
                     help="seconds per level")

    rec = sub.add_parser("record",
                         help="run a staircase campaign, save traces (.npz)")
    rec.add_argument("--out", type=Path, required=True,
                     help="output .npz path")
    rec.add_argument("--levels", type=str, default="0,50,100,175,250",
                     help="comma-separated speeds [cm/s]")
    rec.add_argument("--dwell", type=float, default=8.0)
    rec.add_argument("--seed", type=int, default=42)

    flt = sub.add_parser(
        "fleet",
        help="run a fleet through the batched runtime, optionally in "
             "parallel")
    flt.add_argument("--spec", type=Path, default=None, metavar="PATH",
                     help="JSON FleetSpec image (FleetSpec.to_dict); a "
                          "mixed spec sub-batches per config group. "
                          "Mutually exclusive with --n-monitors/--seed")
    flt.add_argument("--n-monitors", type=int, default=None,
                     help="fleet size (default 4; ignored with --spec)")
    flt.add_argument("--workers", type=int, default=1,
                     help="worker processes; >1 runs each config group "
                          "of a mixed fleet as one job, at most this many "
                          "at once, with bit-identical results; a "
                          "one-group fleet stays in-process (default 1 = "
                          "serial)")
    flt.add_argument("--levels", type=str, default="0,50,120",
                     help="comma-separated staircase speeds [cm/s]")
    flt.add_argument("--dwell", type=float, default=4.0,
                     help="seconds per staircase level")
    flt.add_argument("--seed", type=int, default=None,
                     help="session seed (default 42; ignored with --spec "
                          "-- the spec carries its own seed)")
    flt.add_argument("--out", type=Path, default=None,
                     help="optional .npz path for the fleet traces")
    flt.add_argument("--checkpoint-dir", type=Path, default=None,
                     metavar="DIR",
                     help="checkpoint the run after every engine window "
                          "under DIR (works with any --workers) "
                          "and layer a disk-backed calibration store "
                          "under the in-process cache")
    flt.add_argument("--resume", action="store_true",
                     help="continue from the checkpoint left in "
                          "--checkpoint-dir by a killed run "
                          "(bit-identical to an uninterrupted run)")

    cmp = sub.add_parser(
        "campaign",
        help="run a scenario campaign (demand base load + injected events)")
    cmp.add_argument("--spec", type=Path, default=None, metavar="PATH",
                     help="JSON FleetSpec image with scenario tags; "
                          "mutually exclusive with --scenarios/"
                          "--n-per-scenario/--seed")
    cmp.add_argument("--duration", type=float, default=6.0,
                     help="campaign horizon [s] (default 6.0)")
    cmp.add_argument("--scenarios", type=str,
                     default="baseline,tank_leak,mains_burst",
                     help="comma-separated builtin scenario names "
                          "(default baseline,tank_leak,mains_burst)")
    cmp.add_argument("--n-per-scenario", type=int, default=1,
                     help="monitors per scenario entry (default 1)")
    cmp.add_argument("--seed", type=int, default=42, help="fleet seed")
    cmp.add_argument("--demand", choices=("household", "station"),
                     default="household",
                     help="base-load demand generator (default household)")
    cmp.add_argument("--out", type=Path, default=None,
                     help="optional JSON path for the campaign summary")
    cmp.add_argument("--checkpoint-dir", type=Path, default=None,
                     metavar="DIR",
                     help="checkpoint campaign progress after every engine "
                          "window under DIR")
    cmp.add_argument("--resume", action="store_true",
                     help="continue from the checkpoint left in "
                          "--checkpoint-dir by a killed campaign "
                          "(bit-identical summary)")

    srv = sub.add_parser(
        "serve",
        help="run the streaming fleet service with concurrent demo clients")
    srv.add_argument("--clients", type=int, default=4,
                     help="concurrent client sessions to attach (default 4)")
    srv.add_argument("--n-monitors", type=int, default=1,
                     help="fleet size per client (default 1)")
    srv.add_argument("--levels", type=str, default="0,50,120",
                     help="comma-separated staircase speeds [cm/s]")
    srv.add_argument("--dwell", type=float, default=2.0,
                     help="seconds per staircase level")
    srv.add_argument("--seed", type=int, default=42,
                     help="base seed; client i uses seed + i")
    srv.add_argument("--tick-steps", type=int, default=1000,
                     help="engine samples per cohort tick (the streaming "
                          "granularity; default 1000)")
    srv.add_argument("--max-pending", type=int, default=8,
                     help="per-client snapshot queue bound (default 8)")
    srv.add_argument("--http-port", type=int, default=None,
                     help="serve the live observability plane (/metrics, "
                          "/health, /ready, /snapshot) on this port "
                          "(0 picks a free one); implies a 0.5 s sampler")
    srv.add_argument("--http-host", type=str, default="127.0.0.1",
                     help="bind address for --http-port "
                          "(default 127.0.0.1)")
    srv.add_argument("--sample-every", type=float, default=None,
                     help="snapshot-pipeline cadence in seconds "
                          "(default 0.5 when --http-port is given)")
    srv.add_argument("--hold-open", type=float, default=0.0,
                     help="keep the service (and HTTP plane) up this many "
                          "seconds after the demo clients complete, so "
                          "scrapers can read the final state")

    top = sub.add_parser(
        "top",
        help="live dashboard over a serve --http-port observability plane")
    top.add_argument("--url", type=str, required=True,
                     help="base URL of the live plane "
                          "(e.g. http://127.0.0.1:8765)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between redraws (default 1)")
    top.add_argument("--frames", type=int, default=0,
                     help="stop after this many frames (0 = until ^C)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (CI-friendly)")
    top.add_argument("--last", type=int, default=5,
                     help="ring-buffer samples per frame (default 5)")

    sto = sub.add_parser(
        "store",
        help="inspect or evict the on-disk artifact store")
    sto.add_argument("action", choices=("inspect", "evict"),
                     help="'inspect' lists published artifacts, 'evict' "
                          "removes them")
    sto.add_argument("--dir", type=Path, required=True, dest="store_dir",
                     metavar="DIR", help="store root directory")
    sto.add_argument("--kind", type=str, default=None,
                     help="restrict to one artifact kind "
                          "(e.g. calibration)")
    sto.add_argument("--key", type=str, default=None,
                     help="single artifact key (evict only; requires "
                          "--kind)")
    sto.add_argument("--json", action="store_true",
                     help="inspect: print machine-readable JSON instead "
                          "of the table")
    return parser


def _cmd_selftest(_args: argparse.Namespace) -> int:
    platform = ISIFPlatform.for_anemometer()
    report = platform.self_test()
    print(f"tone: {report['tone_hz']:.2f} Hz")
    print(f"injected amplitude : {report['injected_amplitude_v'] * 1e3:.1f} mV")
    print(f"measured amplitude : {report['measured_amplitude_v'] * 1e3:.1f} mV")
    print(f"amplitude error    : {report['amplitude_error'] * 100:.2f} %")
    ok = report["amplitude_error"] < 0.10
    print("SELF-TEST " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    print(f"running the calibration campaign (seed {args.seed}) ...")
    setup = build_calibrated_monitor(seed=args.seed, fast=args.fast,
                                     use_pulsed_drive=False)
    image = {
        "format": "anemos-cal/2",
        **setup.calibration.to_dict(),
        "monitor": setup.monitor.config.to_dict(),
        "sensor": setup.monitor.sensor.config.to_dict(),
    }
    args.out.write_text(json.dumps(image, indent=2))
    print(f"calibration written to {args.out}")
    print(f"  A = {image['coeff_a'] * 1e3:.4f} mW/K, "
          f"B = {image['coeff_b'] * 1e3:.4f} mW/K (m/s)^-n, "
          f"n = {image['exponent']:.3f}")
    print(f"  residual {image['rms_residual_mps'] * 100:.2f} cm/s rms")
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    monitor = WaterFlowMonitor.from_calibration_file(args.cal)
    conditions = FlowConditions(speed_mps=args.speed_cmps * 1e-2)
    measurement = monitor.measure(conditions, args.duration)
    print(f"true speed     : {args.speed_cmps:.2f} cm/s")
    print(f"measured speed : {measurement.speed_cmps:.2f} cm/s")
    print(f"direction      : "
          f"{'forward' if measurement.direction >= 0 else 'reverse'}")
    print(f"bubble coverage: {measurement.bubble_coverage * 100:.2f} %")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        levels = [float(x) for x in args.levels.split(",") if x.strip()]
    except ValueError:
        print("error: --levels must be comma-separated numbers",
              file=sys.stderr)
        return 2
    if not levels:
        print("error: no levels given", file=sys.stderr)
        return 2
    monitor = WaterFlowMonitor.from_calibration_file(args.cal)
    print(f"{'true [cm/s]':>12}  {'measured [cm/s]':>16}  {'error [cm/s]':>13}")
    for level in levels:
        m = monitor.measure(FlowConditions(speed_mps=level * 1e-2), args.dwell)
        print(f"{level:12.1f}  {m.speed_cmps:16.2f}  "
              f"{m.speed_cmps - level:13.2f}")
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    try:
        levels = [float(x) for x in args.levels.split(",") if x.strip()]
    except ValueError:
        print("error: --levels must be comma-separated numbers",
              file=sys.stderr)
        return 2
    if not levels:
        print("error: no levels given", file=sys.stderr)
        return 2
    from repro.station.profiles import staircase
    print(f"calibrating and running the staircase {levels} cm/s ...")
    setup = build_calibrated_monitor(seed=args.seed, fast=True,
                                     use_pulsed_drive=False)
    record = setup.rig.run(staircase(levels, dwell_s=args.dwell),
                           record_every_n=20)
    record.save(args.out)
    print(f"{len(record)} samples written to {args.out} "
          f"(traces: {', '.join(record.FIELDS)})")
    return 0


def _load_fleet_spec(path: Path):
    from repro.runtime import FleetSpec
    return FleetSpec.from_dict(json.loads(path.read_text()))


def _cmd_fleet(args: argparse.Namespace) -> int:
    try:
        levels = [float(x) for x in args.levels.split(",") if x.strip()]
    except ValueError:
        print("error: --levels must be comma-separated numbers",
              file=sys.stderr)
        return 2
    if not levels:
        print("error: no levels given", file=sys.stderr)
        return 2
    if args.spec is not None and (args.n_monitors is not None
                                  or args.seed is not None):
        print("error: --spec carries the fleet size and seed; do not "
              "combine it with --n-monitors/--seed", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    import time

    from repro.runtime import FleetSpec, Session
    from repro.station.profiles import staircase
    if args.spec is not None:
        spec = _load_fleet_spec(args.spec)
        desc = (f"fleet spec {args.spec} ({spec.n_monitors} monitors, "
                f"{len(spec.rigs)} entries, seed {spec.seed})")
    else:
        n_monitors = 4 if args.n_monitors is None else args.n_monitors
        if n_monitors < 1:
            print("error: --n-monitors must be >= 1", file=sys.stderr)
            return 2
        spec = FleetSpec.homogeneous(
            n_monitors, seed=42 if args.seed is None else args.seed,
            use_pulsed_drive=False, fast_calibration=True)
        desc = f"fleet of {n_monitors} monitors"
    profile = staircase(levels, dwell_s=args.dwell)
    print(f"{desc}, {args.workers} worker(s), "
          f"staircase {levels} cm/s ...")
    if args.checkpoint_dir is not None:
        print(f"checkpointing to {args.checkpoint_dir}"
              + (" (resuming)" if args.resume else ""))
    with Session(fleet=spec, checkpoint_dir=args.checkpoint_dir) as session:
        session.calibrate()
        t0 = time.perf_counter()
        result = session.run(profile, workers=args.workers,
                             resume=args.resume)
        elapsed = time.perf_counter() - t0
    samples = int(profile.duration_s * 1000.0) * spec.n_monitors
    print(f"ran {profile.duration_s:.1f} s x {result.n_monitors} monitors "
          f"in {elapsed:.2f} s wall "
          f"({samples / max(elapsed, 1e-9) / 1e3:.0f} ksamples/s)")
    final = result.measured_mps[:, -1] * 100.0
    print(f"final measured speeds: "
          + ", ".join(f"{v:.1f}" for v in final.tolist()) + " cm/s")
    if args.out is not None:
        result.save(args.out)
        print(f"{len(result)} ticks x {result.n_monitors} monitors "
              f"written to {args.out}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.runtime import FleetSpec, RigSpec
    from repro.station.campaign import SCENARIO_NAMES, run_campaign
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.spec is not None:
        spec = _load_fleet_spec(args.spec)
    else:
        names = [x.strip() for x in args.scenarios.split(",") if x.strip()]
        if not names:
            print("error: no scenarios given", file=sys.stderr)
            return 2
        unknown = sorted(set(names) - set(SCENARIO_NAMES))
        if unknown:
            print(f"error: unknown scenarios {unknown}; "
                  f"builtins are {list(SCENARIO_NAMES)}", file=sys.stderr)
            return 2
        if args.n_per_scenario < 1:
            print("error: --n-per-scenario must be >= 1", file=sys.stderr)
            return 2
        spec = FleetSpec(
            rigs=tuple(RigSpec(count=args.n_per_scenario,
                               scenario=None if name == "baseline" else name,
                               use_pulsed_drive=False, fast_calibration=True)
                       for name in names),
            seed=args.seed)
    print(f"campaign: {spec.n_monitors} monitors, "
          f"{len(spec.rigs)} entries, {args.duration:.1f} s, "
          f"{args.demand} demand ...")
    if args.checkpoint_dir is not None:
        print(f"checkpointing to {args.checkpoint_dir}"
              + (" (resuming)" if args.resume else ""))
    report = run_campaign(spec, duration_s=args.duration, demand=args.demand,
                          checkpoint_dir=args.checkpoint_dir,
                          resume=args.resume)
    for group in report.groups:
        print(f"\nscenario {group['scenario']!r}  "
              f"config {group['config_key']}  "
              f"positions {list(group['positions'])}")
        print(f"  {'window [s]':>16}  {'events':<24}  "
              f"{'d speed [cm/s]':>14}  {'d press [kPa]':>13}")
        for window in group["windows"]:
            span = f"{window['start_s']:.2f}-{window['end_s']:.2f}"
            active = ",".join(window["active"]) or "-"
            d_speed = window["deltas"]["run.measured_mps"] * 100.0
            d_press = window["deltas"]["run.pressure_pa"] / 1e3
            print(f"  {span:>16}  {active:<24}  "
                  f"{d_speed:>14.2f}  {d_press:>13.2f}")
    if report.days:
        print(f"\n{'day':>4}  {'measured [cm/s]':>15}  {'pressure [kPa]':>14}")
        for day in report.days:
            means = day["means"]
            print(f"{day['day']:>4}  "
                  f"{means['run.measured_mps'] * 100.0:>15.2f}  "
                  f"{means['run.pressure_pa'] / 1e3:>14.2f}")
    if args.out is not None:
        args.out.write_text(json.dumps(report.summary(), indent=2) + "\n")
        print(f"\ncampaign summary written to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        levels = [float(x) for x in args.levels.split(",") if x.strip()]
    except ValueError:
        print("error: --levels must be comma-separated numbers",
              file=sys.stderr)
        return 2
    if not levels:
        print("error: no levels given", file=sys.stderr)
        return 2
    if args.clients < 1:
        print("error: --clients must be >= 1", file=sys.stderr)
        return 2
    if args.n_monitors < 1:
        print("error: --n-monitors must be >= 1", file=sys.stderr)
        return 2
    import asyncio
    import time

    from repro.runtime import FleetSpec
    from repro.service import FleetService
    from repro.station.profiles import staircase
    profile = staircase(levels, dwell_s=args.dwell)
    if args.http_port is not None:
        # The live plane serves /metrics from the default registry, so
        # turn the instrumentation on for the whole serve run.
        _enable_observability()
    print(f"serving {args.clients} client(s) x {args.n_monitors} monitor(s), "
          f"staircase {levels} cm/s, tick={args.tick_steps} steps ...")

    async def drive():
        async with FleetService(tick_steps=args.tick_steps,
                                max_pending=args.max_pending,
                                http_port=args.http_port,
                                http_host=args.http_host,
                                sample_every_s=args.sample_every) as service:
            if service.http_url is not None:
                print(f"live observability plane at {service.http_url} "
                      f"(/metrics /health /ready /snapshot)")
            clients = [
                await service.attach(profile, fleet=FleetSpec.homogeneous(
                    args.n_monitors, seed=args.seed + i,
                    use_pulsed_drive=False, fast_calibration=True))
                for i in range(args.clients)
            ]

            async def consume(client):
                windows = 0
                async for _snap in client.snapshots():
                    windows += 1
                return windows, await client.result()

            streamed = await asyncio.gather(*(consume(c) for c in clients))
            stats = service.stats()
            done_t = time.perf_counter()
            if args.hold_open > 0:
                print(f"holding the service open for {args.hold_open:.0f} s "
                      f"(scrape away) ...", flush=True)
                await asyncio.sleep(args.hold_open)
            return clients, streamed, stats, done_t

    t0 = time.perf_counter()
    clients, streamed, stats, done_t = asyncio.run(drive())
    elapsed = done_t - t0
    print(f"{'client':>8}  {'group':>5}  {'seed':>5}  {'windows':>7}  "
          f"{'final [cm/s]':>12}")
    for client, (windows, result) in zip(clients, streamed):
        final = float(result.measured_mps[0, -1]) * 100.0
        print(f"{client.client_id:>8}  {client.group_id:>5}  "
              f"{client.seed:>5}  {windows:>7}  {final:>12.1f}")
    samples = sum(c.total_steps * c.n_monitors for c in clients)
    print(f"{stats['ticks']} engine ticks, {stats['snapshots']} snapshots, "
          f"{stats['completed']} clients completed in {elapsed:.2f} s wall "
          f"({samples / max(elapsed, 1e-9) / 1e3:.0f} ksamples/s)")
    return 0 if stats["completed"] == args.clients else 1


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.observability.live.top import run_top
    if args.interval <= 0:
        print("error: --interval must be > 0", file=sys.stderr)
        return 2
    if args.last < 1:
        print("error: --last must be >= 1", file=sys.stderr)
        return 2
    return run_top(args.url, interval=args.interval, frames=args.frames,
                   once=args.once, last=args.last)


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import ArtifactStore
    store = ArtifactStore(args.store_dir)
    if args.action == "inspect":
        entries = store.inspect()
        if args.kind is not None:
            entries = [e for e in entries if e["kind"] == args.kind]
        if args.key is not None:
            entries = [e for e in entries if e["key"] == args.key]
        if args.json:
            print(json.dumps(entries, indent=2))
            return 0
        if not entries:
            print(f"store {args.store_dir}: no artifacts")
            return 0
        print(f"{'kind':<16}  {'key':<18}  {'bytes':>10}")
        for entry in entries:
            print(f"{entry['kind']:<16}  {entry['key']:<18}  "
                  f"{entry['bytes']:>10}")
        total = sum(e["bytes"] for e in entries)
        print(f"{len(entries)} artifact(s), {total} bytes")
        return 0
    if args.key is not None and args.kind is None:
        print("error: --key requires --kind", file=sys.stderr)
        return 2
    removed = store.evict(kind=args.kind, key=args.key)
    print(f"evicted {removed} artifact(s) from {args.store_dir}")
    return 0


_COMMANDS = {
    "selftest": _cmd_selftest,
    "calibrate": _cmd_calibrate,
    "measure": _cmd_measure,
    "sweep": _cmd_sweep,
    "record": _cmd_record,
    "fleet": _cmd_fleet,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "top": _cmd_top,
    "store": _cmd_store,
}


def _write_metrics(path: Path) -> None:
    registry = get_registry()
    if path.suffix == ".prom":
        path.write_text(export_prometheus(registry))
    else:
        path.write_text(export_jsonl(registry))
    print(f"metrics written to {path} ({len(registry.names())} series)")


def _write_profile(path: Path) -> None:
    report = get_profiler().report()
    path.write_text(json.dumps({"stages": report}, indent=2) + "\n")
    print(f"profile written to {path} ({len(report)} stages)")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.metrics_out is not None:
        _enable_observability()
    profiling = args.profile_out is not None
    if profiling:
        get_profiler().enabled = True
    try:
        code = _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if profiling:
            # Back to the opt-in default so in-process callers (tests,
            # notebooks) do not keep paying the timing hooks.
            get_profiler().enabled = False
    if args.metrics_out is not None:
        _write_metrics(args.metrics_out)
    if profiling:
        _write_profile(args.profile_out)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
