"""Test-rig orchestration: profile → line → sensor-under-test + reference.

Runs a :class:`~repro.station.profiles.Profile` through the
:class:`~repro.station.line.WaterLine`, steps the monitor-under-test and
the Promag 50 reference synchronously, and records decimated traces.
Also hosts :func:`run_calibration` — the §4 procedure that produced the
paper's calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CalibrationError, ConfigurationError
from repro.observability import get_tracer
from repro.baselines.base import FlowMeter
from repro.baselines.promag import Promag50
from repro.conditioning.calibration import CalibrationProcedure, FlowCalibration
from repro.conditioning.cta import CTAController
from repro.conditioning.drive import ContinuousDrive
from repro.conditioning.direction import DirectionDetector
from repro.conditioning.monitor import WaterFlowMonitor
from repro.station.line import WaterLine
from repro.station.profiles import Profile, Segment

__all__ = ["RigRecord", "TestRig", "run_calibration", "run_calibration_batch"]


@dataclass
class RigRecord:
    """Synchronous decimated traces from one rig run (numpy arrays)."""

    time_s: np.ndarray
    true_speed_mps: np.ndarray
    reference_mps: np.ndarray
    measured_mps: np.ndarray
    direction: np.ndarray
    pressure_pa: np.ndarray
    temperature_k: np.ndarray
    bubble_coverage: np.ndarray

    def __len__(self) -> int:
        return len(self.time_s)

    FIELDS = ("time_s", "true_speed_mps", "reference_mps", "measured_mps",
              "direction", "pressure_pa", "temperature_k", "bubble_coverage")

    def steady_window(self, t_from_s: float, t_to_s: float) -> "RigRecord":
        """Slice the record to a time window (for per-dwell statistics)."""
        mask = (self.time_s >= t_from_s) & (self.time_s < t_to_s)
        return RigRecord(**{
            name: getattr(self, name)[mask] for name in self.FIELDS
        })

    def summary(self) -> dict:
        """Per-trace statistics: ``{field: {mean, std, min, max}}``.

        Empty records yield NaN statistics rather than raising, so the
        method is safe on freshly sliced windows.
        """
        out: dict[str, dict[str, float]] = {}
        for name in self.FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size == 0:
                stats = {k: float("nan") for k in ("mean", "std", "min", "max")}
            else:
                stats = {
                    "mean": float(arr.mean()),
                    "std": float(arr.std()),
                    "min": float(arr.min()),
                    "max": float(arr.max()),
                }
            out[name] = stats
        return out

    def to_csv(self, path) -> None:
        """Export the traces as a CSV file with one column per field."""
        header = ",".join(self.FIELDS)
        data = np.column_stack([
            np.asarray(getattr(self, name), dtype=float)
            for name in self.FIELDS
        ])
        np.savetxt(path, data, delimiter=",", header=header, comments="")

    def save(self, path) -> None:
        """Persist the traces to an ``.npz`` archive."""
        np.savez_compressed(path, **{
            name: getattr(self, name) for name in self.FIELDS
        })

    @classmethod
    def load(cls, path) -> "RigRecord":
        """Restore traces written by :meth:`save`.

        Raises
        ------
        ConfigurationError
            If the archive is missing any expected trace.
        """
        with np.load(path) as data:
            missing = [name for name in cls.FIELDS if name not in data]
            if missing:
                raise ConfigurationError(
                    f"record archive missing traces {missing}")
            return cls(**{name: data[name] for name in cls.FIELDS})

    @classmethod
    def concat(cls, parts: list["RigRecord"]) -> "RigRecord":
        """Stitch consecutive windows (from :meth:`TestRig.advance`)
        back into one record, trace by trace.

        Raises
        ------
        ConfigurationError
            If ``parts`` is empty.
        """
        if not parts:
            raise ConfigurationError("RigRecord.concat needs at least one part")
        traces = {}
        for name in cls.FIELDS:
            arrays = [np.asarray(getattr(part, name)) for part in parts]
            # A window too short to cross a recording boundary yields an
            # empty list whose default float dtype would promote integer
            # traces (direction); drop empties unless all are empty.
            filled = [arr for arr in arrays if arr.size] or arrays[:1]
            traces[name] = np.concatenate(filled)
        return cls(**traces)


class TestRig:
    """One measurement line with a monitor-under-test and a reference."""

    def __init__(self, monitor: WaterFlowMonitor, line: WaterLine | None = None,
                 reference: FlowMeter | None = None) -> None:
        self.monitor = monitor
        self.line = line or WaterLine(
            turbulence_multiplier=monitor.sensor.housing.turbulence_multiplier())
        self.reference = reference or Promag50()

    def run(self, profile: Profile, *,
            record_every_n: int = 20) -> RigRecord:
        """Execute a profile; returns decimated synchronous traces.

        This is the unified run surface (shared with
        :meth:`repro.runtime.session.Session.run` and
        :meth:`repro.station.fleet.MonitoredNetwork.run`): everything
        after ``profile`` is keyword-only.

        Parameters
        ----------
        profile:
            Line profile to execute.
        record_every_n:
            Loop ticks between recorded points (default 20).

        Raises
        ------
        ConfigurationError
            On an empty profile or non-positive decimation.
        """
        dt = self.monitor.platform.dt_s
        if record_every_n < 1:
            raise ConfigurationError("record_every_n must be >= 1")
        with get_tracer().span("rig.run", duration_s=profile.duration_s):
            return self._run(profile, record_every_n, dt)

    def _run(self, profile: Profile, record_every_n: int,
             dt: float) -> RigRecord:
        steps = int(round(profile.duration_s / dt))
        if steps < 1:
            raise ConfigurationError("profile shorter than one loop tick")
        return self._advance(profile, 0, steps, record_every_n, dt)

    @property
    def offset(self) -> int:
        """Absolute loop tick the next :meth:`advance` resumes from.

        Zero on a fresh rig; advances by ``steps`` per :meth:`advance`
        call.  Checkpoints taken between windows (pickling the rig)
        carry this offset, which is what makes a resumed run evaluate
        profile setpoints at the same absolute times — and record the
        same decimation phase — as an uninterrupted one.
        """
        return getattr(self, "_advance_offset", 0)

    @offset.setter
    def offset(self, step: int) -> None:
        # Set by BatchEngine.write_back, which leaves the rig where the
        # engine stopped.
        self._advance_offset = int(step)

    def advance(self, profile: Profile, steps: int,
                record_every_n: int = 20) -> RigRecord:
        """Advance ``steps`` loop ticks through ``profile`` and return
        the window's decimated traces.

        The scalar sibling of :meth:`repro.runtime.BatchEngine.advance`
        (the PR 6 contract): consecutive windows stitched with
        :meth:`RigRecord.concat` are bit-identical to one uninterrupted
        :meth:`run` of the same total length — setpoints are evaluated
        at absolute step times and the ``record_every_n`` decimation
        phase carries across window boundaries.

        Raises
        ------
        ConfigurationError
            On non-positive ``steps`` or ``record_every_n``.
        """
        if steps < 1:
            raise ConfigurationError("advance needs at least one step")
        if record_every_n < 1:
            raise ConfigurationError("record_every_n must be >= 1")
        dt = self.monitor.platform.dt_s
        start = self.offset
        record = self._advance(profile, start, steps, record_every_n, dt)
        self._advance_offset = start + steps
        return record

    def _advance(self, profile: Profile, start: int, steps: int,
                 record_every_n: int, dt: float) -> RigRecord:
        t_buf, v_true, v_ref, v_meas = [], [], [], []
        direction, pressure, temperature, coverage = [], [], [], []
        for i in range(start, start + steps):
            t = i * dt
            v_set, p_set, t_set = profile.setpoints(t)
            state = self.line.step(dt, v_set, p_set, t_set)
            conditions = self.line.conditions(state)
            measurement = self.monitor.step(conditions)
            ref_reading = self.reference.read(state.bulk_speed_mps, dt)
            if i % record_every_n == 0:
                t_buf.append(state.time_s)
                v_true.append(state.bulk_speed_mps)
                v_ref.append(ref_reading)
                v_meas.append(measurement.speed_mps)
                direction.append(measurement.direction)
                pressure.append(state.pressure_pa)
                temperature.append(state.temperature_k)
                coverage.append(measurement.bubble_coverage)
        return RigRecord(
            time_s=np.array(t_buf),
            true_speed_mps=np.array(v_true),
            reference_mps=np.array(v_ref),
            measured_mps=np.array(v_meas),
            direction=np.array(direction),
            pressure_pa=np.array(pressure),
            temperature_k=np.array(temperature),
            bubble_coverage=np.array(coverage),
        )


#: Averaging samples between the campaign's Rt reads.
_RT_READ_EVERY = 50


def run_calibration(controller: CTAController,
                    speeds_cmps: list[float],
                    line: WaterLine | None = None,
                    reference: FlowMeter | None = None,
                    settle_s: float = 1.0,
                    average_s: float = 0.5) -> FlowCalibration:
    """The §4 calibration campaign against the reference meter.

    For each setpoint: the line is jumped to steady state, the CTA loop
    settles, then supplies and the reference reading are averaged and a
    calibration point is recorded.  Returns the fitted
    :class:`FlowCalibration`.

    Raises
    ------
    CalibrationError
        From the underlying fit when the campaign is too sparse.
    """
    _check_speeds(speeds_cmps)
    line = line or WaterLine()
    reference = reference or Promag50()
    dt = controller.platform.dt_s
    procedure = CalibrationProcedure(
        overtemperature_k=controller.config.overtemperature_k)
    rt_readings: list[float] = []
    settle_steps, avg_steps = _campaign_steps(dt, settle_s, average_s)
    for v_cmps in speeds_cmps:
        v_target = abs(v_cmps) * 1e-2
        line.jump_to(v_target)
        for _ in range(settle_steps):
            state = line.step(dt, v_target)
            controller.step(line.conditions(state))
            reference.read(state.bulk_speed_mps, dt)
        u_a_acc = u_b_acc = ref_acc = 0.0
        valid = 0
        for i in range(avg_steps):
            state = line.step(dt, v_target)
            tel = controller.step(line.conditions(state))
            ref_acc += reference.read(state.bulk_speed_mps, dt)
            if tel.sample_valid:
                u_a_acc += tel.supply_a_v
                u_b_acc += tel.supply_b_v
                valid += 1
                if i % _RT_READ_EVERY == 0:  # temperature anchor
                    rt = controller.read_reference_resistance(tel)
                    if rt is not None:
                        rt_readings.append(rt)
        _add_point(procedure, controller, u_a_acc, u_b_acc, valid,
                   ref_acc / avg_steps)
    return _fit(procedure, rt_readings)


def run_calibration_batch(rigs: list[TestRig], speeds_cmps: list[float],
                          settle_s: float = 1.0,
                          average_s: float = 0.5) -> list[FlowCalibration]:
    """:func:`run_calibration` for a list of rigs on one batch engine.

    Each rig's ``monitor.controller`` is calibrated against the rig's
    own line and reference meter, and every returned calibration (and
    every rig's post-campaign state, written back into the rig) is
    bit-identical to ``run_calibration(rig.monitor.controller,
    speeds_cmps, line=rig.line, reference=rig.reference, ...)`` on that
    rig alone.  The campaign's windows map onto the engine: a
    :meth:`~repro.runtime.BatchEngine.jump_to` per setpoint, one
    :meth:`~repro.runtime.BatchEngine.accumulate` to settle, then
    averaging windows cut after every Rt-read sample, where each row's
    supply and reference midpoint go to its own scalar spare channel.
    The rigs' estimators are not advanced.

    Raises
    ------
    CalibrationError
        With fewer than 4 speeds, or from a fit.
    ConfigurationError
        If the rigs do not run continuous drive, or the batch engine
        refuses them; both are raised before any rig is advanced.
    """
    from repro.runtime.batch import BatchEngine  # lazy: it imports us
    _check_speeds(speeds_cmps)
    controllers = [rig.monitor.controller for rig in rigs]
    if not all(isinstance(c.drive, ContinuousDrive) for c in controllers):
        raise ConfigurationError(
            "batched calibration needs continuous drive: every averaging "
            "sample must be valid")
    engine = BatchEngine(rigs)
    procedures = [CalibrationProcedure(
        overtemperature_k=c.config.overtemperature_k) for c in controllers]
    rt_readings: list[list[float]] = [[] for _ in rigs]
    settle_steps, avg_steps = _campaign_steps(
        controllers[0].platform.dt_s, settle_s, average_s)
    # Averaging windows end right after each Rt-read sample (i = 0, 50,
    # 100, ...), so the reads see the state the scalar loop reads.
    ends = list(range(1, avg_steps + 1, _RT_READ_EVERY))
    if ends[-1] != avg_steps:
        ends.append(avg_steps)
    for v_cmps in speeds_cmps:
        v_target = abs(v_cmps) * 1e-2
        hold = Profile([Segment(duration_s=1.0, speed_mps=v_target)])
        engine.jump_to(v_target)
        if settle_steps:
            engine.accumulate(hold, settle_steps)
        sums, done = None, 0
        for end in ends:
            sums = engine.accumulate(hold, end - done, sums)
            if (end - 1) % _RT_READ_EVERY == 0:
                for j, controller in enumerate(controllers):
                    rt = controller.read_reference_resistance_at(
                        float(sums.supply[0, j]), float(sums.midpoint_a[j]))
                    if rt is not None:
                        rt_readings[j].append(rt)
            done = end
        for j, (procedure, controller) in enumerate(zip(procedures,
                                                        controllers)):
            _add_point(procedure, controller, float(sums.supply_sum[0, j]),
                       float(sums.supply_sum[1, j]), sums.valid,
                       float(sums.reference_sum[j]) / avg_steps)
    engine.write_back()
    return [_fit(procedure, reads)
            for procedure, reads in zip(procedures, rt_readings)]


def _check_speeds(speeds_cmps: list[float]) -> None:
    if len(speeds_cmps) < 4:
        raise CalibrationError("calibration campaign needs at least 4 speeds")


def _campaign_steps(dt: float, settle_s: float,
                    average_s: float) -> tuple[int, int]:
    """Settling and averaging steps per campaign setpoint."""
    return int(round(settle_s / dt)), max(1, int(round(average_s / dt)))


def _add_point(procedure: CalibrationProcedure, controller: CTAController,
               u_a_acc: float, u_b_acc: float, valid: int,
               reference_mps: float) -> None:
    """Record one setpoint from its averaging sums."""
    if valid == 0:
        raise CalibrationError(
            "no valid samples during averaging (pulsed drive duty too low "
            "for the chosen average_s)")
    u_a = u_a_acc / valid
    u_b = u_b_acc / valid
    procedure.add_point(
        reference_speed_mps=reference_mps,
        conductance_w_per_k=controller.conductance_from_supplies(u_a, u_b),
        heater_asymmetry=DirectionDetector.asymmetry(u_a, u_b),
    )


def _fit(procedure: CalibrationProcedure,
         rt_readings: list[float]) -> FlowCalibration:
    if rt_readings:
        procedure.reference_resistance_ohm = float(np.mean(rt_readings))
    return procedure.fit()
