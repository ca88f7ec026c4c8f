"""The benchmark's four workloads, driven through the public API only.

Every workload derives its fleets (and, for the service, its arrival
schedule) from the workload seed, sets itself up from an empty
calibration LRU and an empty artifact store, runs a timed phase, and
checks its outputs bit for bit outside the timed region:

``fleet-steady``
    Closed loop, one caller: repeated ``Session.run`` of the CLI
    staircase over 16 calibrated monitors.  Calibration is LRU hits
    only; the per-step engine loop does the work.
``fleet-overflow``
    The same path at 36 monitors, past the 32-entry calibration LRU,
    with a short profile: every run re-runs all 36 section-4 campaigns.
``service-arrivals``
    Open loop: clients arrive in seeded pairs and each attaches one of
    16 pre-calibrated 2-monitor fleets to one ``FleetService``
    (``tick_steps=100``), draining its snapshot stream.
``fleet-durable``
    Closed loop: 32 monitors with ``Session(checkpoint_dir=...)`` and
    ``workers=2``, the LRU emptied before every request, so each run
    materializes from the warm store and checkpoints every window.

``backend=`` is never passed: the benchmark measures the library's
default parallel backend.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import inspect
import resource
import shutil
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro import (BatchEngine, FleetService, FleetSpec, ReproError,
                   RunResult, Session, build_calibrated_monitor, staircase)
from repro.station.scenarios import clear_calibration_cache

from hostspeed import HostClock, speed_factor
from tracing import median

#: Fleet build shared by every workload: the CLI ``fleet`` build
#: (steady drive, fast calibration) with a four-speed section-4 campaign
#: -- the fitter's minimum -- covering the staircase levels and full
#: scale.  It halves the campaign cost of the default eight-speed
#: ladder so that cold set-ups fit the run budget; campaign cost stays
#: linear in the number of campaigns, so the LRU cliff is unchanged.
BUILD = dict(use_pulsed_drive=False, fast_calibration=True,
             calibration_speeds_cmps=(0.0, 50.0, 120.0, 250.0))

#: The CLI staircase levels [cm/s].
LEVELS = (0.0, 50.0, 120.0)

LOOP_RATE_HZ = 1000.0

#: Parallel backend the library uses when ``backend=`` is not passed.
DEFAULT_BACKEND = inspect.signature(Session.run).parameters[
    "backend"].default

#: Service offered load [clients/s]: about half of the ~2 clients/s one
#: service sustained on a 2-CPU host for this client mix before its
#: latency ran away (see NOTES.md).
SERVICE_RATE_PER_S = 1.0

#: Delay between the two clients of an arrival pair [s]: long enough for
#: the first one's cohort to seal, so the pair ticks as two cohorts.
PAIR_LAG_S = 0.1

SERVICE_ONLY = ("service.attach_p50_s", "service.cohorts",
                "service.clients_per_cohort", "service.ticks",
                "service.snapshots", "service.backpressure_stalls",
                "service.tick_p50_s", "service.loop_busy_share",
                "service.first_window_p50_s", "service.window_gap_p50_s",
                "service.window_gap_tail_s", "service.window_gap_tail_pct",
                "service.window_gaps", "service.generator_late_s")


def derive(seed: int, *path) -> int:
    """A child seed of the workload seed, one per named use."""
    words = [int(seed)] + [zlib.crc32(str(p).encode()) for p in path]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def arrival_schedule(seed: int, rate_per_s: float, seconds: float,
                     n_fleets: int) -> list[tuple[float, int]]:
    """``(offset_s, fleet_index)`` per client, sorted by offset.

    ``rate * seconds`` clients arriving in pairs: one pair per slot of
    ``2 / rate`` seconds, at a seeded point in the slot's first quarter,
    the second client ``PAIR_LAG_S`` after the first, so that every
    client's cohort ticks beside one other cohort for most of its run.
    The seed also picks each client's fleet.  A pure function of its
    arguments.

    Why not Poisson: an open loop's latency grows faster than linearly
    with the host's slowness once clients overlap by chance, and this
    host's speed drifts by up to 1.5x; with about ten clients a run,
    Poisson draws (and every variant that kept chance overlaps) moved
    the latency median by 20-40 % from run to run.
    """
    rng = np.random.default_rng(derive(seed, "arrivals"))
    n = max(1, int(round(rate_per_s * seconds)))
    pairs = (n + 1) // 2
    starts = (np.arange(pairs) + rng.uniform(0.0, 0.25, pairs)) \
        * (2.0 / rate_per_s)
    offsets = np.sort(np.concatenate((starts, starts + PAIR_LAG_S)))[:n]
    fleets = rng.integers(0, n_fleets, n)
    return [(float(t), int(k)) for t, k in zip(offsets, fleets)]


def digest(result: RunResult) -> str:
    """SHA-256 over every array of a result (shape, dtype and bytes)."""
    h = hashlib.sha256()
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        array = np.ascontiguousarray(getattr(result, name))
        h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def rows(result: RunResult, lo: int, hi: int) -> RunResult:
    """Rows ``[lo, hi)`` of a result as a result of their own."""
    return RunResult(time_s=result.time_s, **{
        name: getattr(result, name)[lo:hi]
        for name in RunResult.STACKED_FIELDS})


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set size of this process [MiB]."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values, ladder=(99.9, 99.0, 95.0, 90.0, 75.0)):
    """``(percentile, value)`` of the highest ladder percentile with at
    least ten samples beyond it, or None when the count supports none."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in ladder:
        rank = int(np.ceil(pct / 100.0 * n)) - 1
        if rank >= 0 and n - 1 - rank >= 10:
            return pct, ordered[rank]
    return None


@dataclass
class Phase:
    """What one timed phase measured.

    ``latencies`` and ``cpu_s`` are scaled to the reference host speed
    (see :mod:`hostspeed`); so is ``busy_s``, the time samples are
    counted over, for a closed loop (requests times the median request
    latency).  An open loop's ``busy_s`` is its wall time, which the
    arrival schedule sets.  ``raw`` keeps the unscaled figures.
    """

    latencies: list[float]
    samples: int
    busy_s: float
    cpu_s: float
    outputs: list
    extra: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


class ClosedLoop:
    """One caller issuing ``Session.run`` back to back."""

    name = ""
    n_monitors = 0
    dwell_s = 0.0
    run_kwargs: dict = {}
    #: Scale request times to the reference host speed (hostspeed.py).
    scale_host = True
    #: Re-probe the host speed before every rig build inside a request
    #: (for requests that take many seconds).
    lap_per_rig = False
    #: Cold set-ups per ``--trace 0`` run (``setup_s`` is their median).
    #: One for fleets of 32+ monitors: a set-up is then 32-36 campaigns
    #: (10-13 s), and repeating it would not fit the run budget.
    setup_repeats = 1

    def __init__(self, seed: int, workdir, rec) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.rec = rec
        self.spec = FleetSpec.homogeneous(
            self.n_monitors, seed=derive(seed, self.name), **BUILD)
        self.profile = staircase(list(LEVELS), dwell_s=self.dwell_s)
        self.steps = int(round(self.profile.duration_s * LOOP_RATE_HZ))
        self.session: Session | None = None

    def settings(self) -> dict:
        return {"monitors": self.n_monitors,
                "profile_s": self.profile.duration_s,
                "workers": self.run_kwargs.get("workers", 1),
                "numerics": "exact", "backend": DEFAULT_BACKEND}

    def _new_session(self) -> Session:
        return Session(fleet=self.spec)

    async def setup(self) -> None:
        clear_calibration_cache()
        await self.close()
        self.session = self._new_session()
        self.session.open()
        self.session.calibrate()

    def request(self) -> RunResult:
        with self.rec.span("session.run"):
            return self.session.run(self.profile, **self.run_kwargs)

    async def phase(self, seconds: float) -> Phase:
        raw, latencies, cpu, outputs, errors = [], [], [], [], 0
        t0 = time.perf_counter()
        while True:
            cpu0 = cpu_seconds()
            clock = HostClock()
            try:
                with (clock.lapping_per_rig() if self.lap_per_rig
                      else contextlib.nullcontext()):
                    outputs.append(self.request())
            except ReproError:
                errors += 1
                outputs.append(None)
            clock.lap()
            scale = clock.scale if self.scale_host else 1.0
            raw.append(clock.raw_s)
            latencies.append(clock.raw_s * scale)
            cpu.append((cpu_seconds() - cpu0 - clock.probe_cpu_s) * scale)
            if time.perf_counter() - t0 >= seconds:
                break
        # Totals at the median request: one probe that landed in a
        # hiccup must not skew a sum.
        ok = len(outputs) - errors
        return Phase(latencies=latencies,
                     samples=ok * self.n_monitors * self.steps,
                     busy_s=median(latencies) * len(latencies),
                     cpu_s=median(cpu) * len(cpu),
                     outputs=outputs,
                     raw={"latency_p50_s": median(raw),
                          "busy_s": sum(raw),
                          "wall_s": time.perf_counter() - t0})

    def oracle_ok(self, result: RunResult) -> bool:
        """One rig's rows equal the scalar ``TestRig.run`` of its seed."""
        i = self.seed % self.n_monitors
        setup = build_calibrated_monitor(
            seed=self.spec.monitor_seeds()[i],
            **self.spec.flat()[i].build_kwargs())
        oracle = RunResult.from_records(
            [setup.rig.run(self.profile, record_every_n=20)])
        return digest(rows(result, i, i + 1)) == digest(oracle)

    async def check(self, outputs: list) -> int:
        """Failed outputs: errors, and results that differ from the
        first one or whose reference fails the oracle."""
        first = next((r for r in outputs if r is not None), None)
        if first is None:
            return len(outputs)
        good = digest(first) if self.oracle_ok(first) else None
        return sum(1 for r in outputs if r is None or digest(r) != good)

    async def reference(self) -> dict:
        """Extra per-layer figures measured outside the traced window."""
        return {}

    async def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


class FleetSteady(ClosedLoop):
    name = "fleet-steady"
    n_monitors = 16
    dwell_s = 0.5
    setup_repeats = 3


class FleetOverflow(ClosedLoop):
    name = "fleet-overflow"
    n_monitors = 36
    dwell_s = 0.1
    lap_per_rig = True


class FleetDurable(ClosedLoop):
    name = "fleet-durable"
    n_monitors = 32
    dwell_s = 1.0
    run_kwargs = {"workers": 2}
    # Most of a request runs in two worker processes, whose speed a
    # probe in this one does not see: scaled, the latency spread over
    # ten seeds was 0.20; raw, 0.09.  (Set-up is in-process and scaled.)
    scale_host = False

    def _new_session(self) -> Session:
        root = self.workdir / "durable"
        shutil.rmtree(root, ignore_errors=True)
        return Session(fleet=self.spec, checkpoint_dir=root)

    def request(self) -> RunResult:
        # As in a fresh process resuming against the warm store.
        clear_calibration_cache()
        return super().request()

    def oracle_ok(self, result: RunResult) -> bool:
        """The whole result equals a serial ``BatchEngine`` run."""
        serial = BatchEngine(self.spec.materialize()).run(
            self.profile, record_every_n=20)
        return digest(result) == digest(serial)

    async def reference(self) -> dict:
        """The durable run's 1000-step windows on an in-process serial
        engine over the same rigs."""
        engine = BatchEngine(self.spec.materialize())
        times, done = [], 0
        while done < self.steps:
            budget = min(1000, self.steps - done)
            t = time.perf_counter()
            engine.advance(self.profile, budget, record_every_n=20)
            times.append(time.perf_counter() - t)
            done += budget
        return {"parallel.serial_window_p50_s": median(times)}


@dataclass
class Client:
    """One service client's timeline (raw wall clock) and outputs."""

    fleet: int
    due: float
    issued: float
    period: dict
    attach_s: float = 0.0
    group: int = -1
    arrivals: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    result: RunResult | None = None
    done: float = 0.0


class ServiceArrivals:
    """Open-loop clients attaching to one resident ``FleetService``."""

    name = "service-arrivals"
    n_fleets = 16
    fleet_size = 2
    tick_steps = 100
    profile_s = 2.0
    setup_repeats = 1

    def __init__(self, seed: int, workdir, rec) -> None:
        self.seed = int(seed)
        self.rec = rec
        self.fleets = [
            FleetSpec.homogeneous(self.fleet_size,
                                  seed=derive(seed, self.name, k), **BUILD)
            for k in range(self.n_fleets)]
        self.profile = staircase(list(LEVELS),
                                 dwell_s=self.profile_s / len(LEVELS))
        self.steps = int(round(self.profile.duration_s * LOOP_RATE_HZ))
        self.service: FleetService | None = None
        self._active = 0

    def settings(self) -> dict:
        return {"monitors": self.fleet_size, "fleets": self.n_fleets,
                "profile_s": self.profile.duration_s,
                "tick_steps": self.tick_steps,
                "rate_per_s": SERVICE_RATE_PER_S, "workers": 1,
                "numerics": "exact", "backend": DEFAULT_BACKEND}

    async def setup(self) -> None:
        clear_calibration_cache()
        await self.close()
        for fleet in self.fleets:
            session = Session(fleet=fleet)
            session.open()
            session.calibrate()
            session.close()
        self.service = FleetService(tick_steps=self.tick_steps)
        await self.service.start()

    async def client(self, record: Client) -> Client:
        try:
            # attach() never awaits internally, so no tick interleaves
            # with the span.
            t = time.perf_counter()
            with self.rec.span("service.attach"):
                session = await self.service.attach(
                    self.profile, fleet=self.fleets[record.fleet])
            record.attach_s = time.perf_counter() - t
            record.group = session.group_id
            async for snap in session.snapshots():
                record.arrivals.append(time.perf_counter())
                record.windows.append(snap.window)
            record.result = await session.result()
        except ReproError:
            record.result = None
        finally:
            self._active -= 1
            if self._active == 0:
                record.period["cpu_s"] += cpu_seconds()
        record.done = time.perf_counter()
        return record

    async def _probe_while_idle(self, stop: asyncio.Event,
                                factors: list) -> None:
        """Probe the host speed back to back whenever no client is in
        flight.

        This keeps the CPU busy through the schedule's idle gaps, so
        the host reads at the speed the busy service runs at (a probe
        that wakes an idle loop reads it slower), and each busy period
        is scaled by the probes just before it, as a closed loop scales
        each request.  Between a client's ticks it only yields.
        """
        while not stop.is_set():
            if self._active == 0:
                factors.append(speed_factor())
            await asyncio.sleep(0)

    async def phase(self, seconds: float) -> Phase:
        schedule = arrival_schedule(self.seed, SERVICE_RATE_PER_S, seconds,
                                    self.n_fleets)
        before = self.service.stats()
        stop, factors = asyncio.Event(), []
        prober = asyncio.create_task(self._probe_while_idle(stop, factors))
        t0 = time.perf_counter()
        tasks, periods = [], []
        for offset, k in schedule:
            delay = t0 + offset - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            issued = time.perf_counter()
            if self._active == 0:
                # A busy period starts: scaled by the probes before it,
                # its CPU counted until the last client in it is done.
                recent = factors[-3:] or [speed_factor()]
                periods.append({"factor": median(recent), "clients": 0,
                                "cpu_s": -cpu_seconds()})
            periods[-1]["clients"] += 1
            record = Client(fleet=k, due=t0 + offset, issued=issued,
                            period=periods[-1])
            self._active += 1
            tasks.append(asyncio.create_task(self.client(record)))
        clients = await asyncio.gather(*tasks)
        wall = max(c.done for c in clients) - t0
        stop.set()
        await prober
        after = self.service.stats()
        ok = [c for c in clients if c.result is not None]
        per_sample = median(p["cpu_s"] * p["factor"]
                            / (p["clients"] * self.fleet_size * self.steps)
                            for p in periods)
        gaps = [(b - a) * c.period["factor"] for c in ok
                for a, b in zip(c.arrivals, c.arrivals[1:])]
        gap_tail = tail(gaps)
        late = sorted(c.issued - c.due for c in clients)
        cohorts = len({c.group for c in ok})
        extra = {
            "service.attach_p50_s": median(c.attach_s * c.period["factor"]
                                           for c in ok),
            "service.cohorts": cohorts,
            "service.clients_per_cohort": len(ok) / cohorts if cohorts else 0,
            "service.first_window_p50_s": median(
                (c.arrivals[0] - c.due) * c.period["factor"]
                for c in ok if c.arrivals),
            "service.window_gap_p50_s": median(gaps),
            "service.window_gap_tail_s": gap_tail[1] if gap_tail else 0.0,
            "service.window_gap_tail_pct": gap_tail[0] if gap_tail else 0.0,
            "service.window_gaps": len(gaps),
            "service.generator_late_s": late[min(
                len(late) - 1, int(np.ceil(0.99 * len(late))) - 1)],
        }
        for key in ("ticks", "snapshots", "backpressure_stalls"):
            extra[f"service.{key}"] = after[key] - before[key]
        samples = len(ok) * self.fleet_size * self.steps
        return Phase(latencies=[(c.done - c.due) * c.period["factor"]
                                for c in clients],
                     samples=samples, busy_s=wall,
                     cpu_s=per_sample * samples, outputs=clients,
                     extra=extra,
                     raw={"latency_p50_s": median(c.done - c.due
                                                  for c in clients),
                          "wall_s": wall,
                          "speed_factor": median(p["factor"]
                                                 for p in periods)})

    async def check(self, outputs: list) -> int:
        """Failed clients: errors, and clients whose stitched windows
        differ from their result or from a standalone run."""
        standalone: dict[int, str] = {}
        failed = 0
        for c in outputs:
            if c.result is None:
                failed += 1
                continue
            if c.fleet not in standalone:
                with Session(fleet=self.fleets[c.fleet]) as session:
                    session.calibrate()
                    standalone[c.fleet] = digest(session.run(self.profile))
            stitched = digest(RunResult.concat(c.windows, axis="time"))
            if not stitched == digest(c.result) == standalone[c.fleet]:
                failed += 1
        return failed

    async def reference(self) -> dict:
        return {}

    async def close(self) -> None:
        if self.service is not None:
            await self.service.stop()
            self.service = None


WORKLOADS = {cls.name: cls for cls in
             (FleetSteady, FleetOverflow, ServiceArrivals, FleetDurable)}
