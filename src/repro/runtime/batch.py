"""Chunk-vectorized batch engine: N monitors × K samples per call.

This is the fleet-scale hot path.  It advances N structurally identical
:class:`~repro.station.rig.TestRig` instances in lock-step with numpy
array math, replacing the per-sample Python loops of
``conditioning/cta.py`` / ``conditioning/monitor.py`` /
``station/rig.py`` while reproducing their arithmetic *bit for bit*:

- Elementary float64 operations (+, -, *, /, sqrt, clip) are IEEE-754
  identical between numpy arrays and Python scalars when the association
  order of the scalar code is mirrored, so every expression here copies
  the source association exactly.
- Transcendentals whose argument varies per step (the heater exponential
  update, the film-property correlations, King's-law inversion) are
  evaluated elementwise with ``math``/python-float arithmetic — numpy's
  SIMD ``exp``/``pow`` may differ from libm in the last ulp on arrays.
  Constants hoisted out of the loop reuse the original source expression
  (including whether it used ``math.exp`` or ``np.exp``).
- Random draws are pre-drawn per chunk from the *live* generators of the
  rigs' components.  ``Generator.standard_normal(k)`` produces the same
  stream as ``k`` sequential ``normal()`` calls, and interleaved
  consumers of one generator (the AFE's flicker+white pair) deinterleave
  a ``2k`` block.  Data-dependent draws (bubble churn noise) stay lazy
  scalar draws from each bubble model's own generator.
- The per-sample loop itself only runs the genuinely recurrent chain:
  :mod:`repro.runtime.kernels` precomputes each chunk's time axis
  (profile setpoints, shared-line plant, drive schedule) and runs every
  feed-forward stochastic trajectory (turbulence OU, AFE flicker,
  backside OU, Promag lag) as a time-blocked kernel; the flow
  estimator, which feeds nothing back, runs once per chunk after it.

The engine *consumes* the rigs passed to it: their RNG streams advance,
the first rig's drive scheme is ticked, and every platform scheduler is
bulk-advanced.  Treat the rigs as spent after :meth:`BatchEngine.run`
unless :meth:`BatchEngine.write_back` hands them their state back.  For
repeatable runs, :meth:`BatchEngine.rewind` takes the engine (and the
generators it shares with its rigs) back to the state it was built
with, byte-identical to a new engine over freshly built rigs;
:class:`repro.runtime.Session` reruns a fleet that way.

A fleet runs in *lanes*.  A lane is a set of rows that joined the
engine at one step (:meth:`BatchEngine.admit`): it reads the profile
at its own clock (the engine step minus the step it joined at) and
carries its own shared-line plant and line time.  Each chunk is
planned once per lane and scattered into per-row line tables (fluid
temperature, pressure, bulk speed, turbulence-OU coefficients) that
the one per-sample loop reads, so a row's arithmetic is the same in a
lane of its own and beside others.  Lanes share the drive phase and
the decimation phase, which is why a lane can only join where both
match.  An engine built from a rig list is one lane.

Fleets must be *structurally homogeneous* (same configs modulo seeds);
per-monitor diversity enters only through realized component values
(resistor tolerances, DAC mismatch, calibration constants, housing
state, noise streams).  Heterogeneous fleets are refused with
:class:`~repro.errors.ConfigurationError` (``reason="heterogeneous"``,
naming the offending config-group keys) — route them through
:class:`repro.runtime.mixed.MixedEngine`, which sub-batches per config
group and merges bit-identically (:class:`repro.runtime.Session` and
every other fleet caller always do).
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError, SensorFault
from repro.observability import (Tracer, get_profiler, get_registry,
                                 get_tracer)
from repro.baselines.promag import Promag50
from repro.conditioning.drive import ContinuousDrive, PulsedDrive
from repro.isif.sigma_delta import BehavioralAdc
from repro.physics.convection import NATURAL_CONVECTION_FLOOR
from repro.physics.water import boiling_temperature
from repro.runtime.kernels import (LOOP_REGIONS, ar1_block, drive_schedule,
                                   exp_exact, film_conductance,
                                   hysteresis_block, plan_chunk, pow_exact,
                                   q_pi_step, relax_block)
from repro.runtime.result import RunResult
from repro.state import load_state, state_of
from repro.station.profiles import Profile
from repro.station.rig import TestRig

__all__ = ["BatchEngine", "WindowSums"]


def _require(condition: bool, message: str) -> None:
    """Raise ConfigurationError with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def _pair(values) -> np.ndarray:
    """Two contiguous copies of ``values`` stacked on the next-to-last axis.

    ``(N,)`` becomes ``(2, N)`` and ``(c, N)`` becomes ``(c, 2, N)``:
    a per-monitor value laid out like the engine's (bridge A, bridge
    B) rows, so the loop's ufuncs meet equal shapes.
    """
    return np.stack((values, values), axis=-2)


def _drive_state(drive):
    """The phase a drive scheme carries (None for a stateless one)."""
    return state_of(drive) if isinstance(drive, PulsedDrive) else None


@dataclass(slots=True)
class _Lane:
    """Rows that joined an engine at one step: their profile clock and
    shared-line plant.

    ``start`` is the engine step the lane joined at, so the lane reads
    the profile at ``step - start``; ``speed``/``pressure``/
    ``temperature`` are the line plant after the lane's last step and
    ``time_s`` its line time.  Two lanes are equal when rows joining one
    could run in the other.
    """

    start: int
    speed: float
    pressure: float
    temperature: float
    time_s: float

    @classmethod
    def joining(cls, start: int, line: dict) -> "_Lane":
        """A lane joining at ``start`` with a line's (state) plant."""
        return cls(start, *(float(line[key]) for key in
                             ("speed", "pressure", "temperature", "time_s")))


def _drop_rows(indices, n: int) -> set[int]:
    """The drop-index check every engine's ``drop`` shares.

    Returns the rows of an ``n``-row fleet that ``indices`` name.

    Raises
    ------
    ConfigurationError
        On an index outside ``[0, n)`` or one given twice.
    """
    rows: set[int] = set()
    for j in indices:
        j = int(j)
        if not 0 <= j < n:
            raise ConfigurationError(
                f"drop index {j} out of range for fleet of {n}")
        if j in rows:
            raise ConfigurationError(f"drop index {j} given twice")
        rows.add(j)
    return rows


def _bridges(mon) -> tuple[tuple, tuple]:
    """Bridge A's and bridge B's parts the engine keeps one value for.

    A bit-true ``SigmaDeltaAdc`` declares no scale, so its rig is keyed
    with ``None`` in its place before it is refused.
    """
    plat, ctrl, sen = mon.platform, mon.controller, mon.sensor
    parts = []
    for ch, dac, pi, heater, bridge in zip(
            plat.channels[:2], (plat.supply_dac_a, plat.supply_dac_b),
            (ctrl.pi_a, ctrl.pi_b), (sen.heater_a, sen.heater_b),
            (sen.bridge_a, sen.bridge_b)):
        adc = state_of(ch.adc) if isinstance(ch.adc, BehavioralAdc) else {}
        parts.append((
            (ch.config.afe, bool(ch.config.bit_true_adc),
             type(ch.adc).__name__, state_of(ch.anti_alias)["coeffs"],
             ch.digital_lpf.alpha, ch.digital_lpf.qformat,
             *(adc.get(key) for key in
               ("thermal_rms_v", "lsb_v", "min_code", "max_code"))),
            (dac.settling_time_s, dac.lsb_v, dac.max_code),
            pi.config,
            (heater.material.tcr_per_k, heater.reference_temperature_k),
            bridge.r_series_ohm))
    return tuple(parts)


def _signature(rig: TestRig) -> tuple:
    """Everything two rigs must share to run on one :class:`BatchEngine`.

    Rigs share an engine exactly when their signatures compare equal;
    :func:`repro.runtime.mixed.config_group_key` is a hash of this
    tuple.  Realized per-rig values (trims, calibration constants,
    housing state, turbulence intensity, noise streams) are left out:
    they are the in-group diversity the engine carries per monitor.
    """
    mon = rig.monitor
    sen = mon.sensor
    ctrl = mon.controller
    est = mon.estimator
    plat = mon.platform
    line = rig.line
    ref = rig.reference
    drive = ctrl.drive
    drive_sig: tuple = (type(drive).__name__,)
    if isinstance(drive, PulsedDrive):
        drive_sig += (drive.period_s, drive.duty, drive.blanking_s,
                      state_of(drive)["t"])
    line_state = state_of(line)
    noise = line_state["noise"]["config"]
    channels, dacs, pis, heaters, series = zip(*_bridges(mon))
    return (
        replace(sen.config, seed=0),
        mon.config,
        ctrl.config,
        plat.loop_rate_hz,
        (bool(est.config.use_direction),
         bool(est.config.temperature_compensation),
         bool(state_of(est)["primed"])),
        drive_sig,
        channels, dacs, pis,
        (replace(line.config, seed=0),
         noise.floor_mps, noise.integral_length_m, noise.min_speed_mps,
         *(line_state[key] for key in
           ("speed", "pressure", "temperature", "time_s"))),
        (type(ref).__name__,
         getattr(ref, "full_scale_mps", None),
         getattr(ref, "accuracy_of_reading", None),
         getattr(ref, "resolution_fraction_fs", None),
         getattr(ref, "response_time_s", None)),
        heaters,
        (sen.reference.material.tcr_per_k,
         sen.reference.reference_temperature_k, sen.reference.nominal_ohm),
        series,
    )


def _validate_fleet(rigs: list[TestRig]) -> tuple:
    """Refuse fleets the vectorized path cannot reproduce bit-exactly.

    Every rig's :func:`_signature` must equal rig 0's; a fleet that
    splits is refused naming its config groups.  Rig 0 then speaks for
    the fleet: it must use only features the engine reproduces, and its
    bridge B must be built like bridge A, because the engine keeps one
    value for both bridges.  Returns the fleet's signature.

    Raises
    ------
    ConfigurationError
        On an empty or heterogeneous fleet (``reason="heterogeneous"``),
        an unsupported feature or a bridge-B/A asymmetry.
    SensorFault
        If any sensor is already failed.
    """
    _require(len(rigs) > 0, "batch engine needs at least one rig")
    for rig in rigs:
        if rig.monitor.sensor.failed is not None:
            raise SensorFault(rig.monitor.sensor.failed)
    sig0 = _signature(rigs[0])
    if any(_signature(rig) != sig0 for rig in rigs[1:]):
        from repro.runtime.mixed import fleet_groups  # lazy: mixed imports us
        raise ConfigurationError(
            "fleet is heterogeneous: config groups "
            f"{sorted(fleet_groups(rigs))} cannot share one BatchEngine; "
            "use repro.runtime.MixedEngine (or a FleetSpec via Session) "
            "to sub-batch per group", reason="heterogeneous")
    mon = rigs[0].monitor
    ch = mon.platform.channels[0]
    _require(mon.sensor.config.medium == "water",
             "batch engine supports medium='water' only")
    _require(not mon.config.temperature_compensation,
             "temperature compensation is not vectorized; use the scalar path")
    _require(not mon.estimator.config.temperature_compensation,
             "temperature compensation is not vectorized")
    _require(ch.config.afe.mode.name == "INSTRUMENT",
             "batch engine supports INSTRUMENT readout only")
    _require(not ch.config.afe.strict, "strict AFE mode is not vectorized")
    _require(not ch.config.bit_true_adc and isinstance(ch.adc, BehavioralAdc),
             "bit-true sigma-delta ADC is not vectorized")
    _require(ch.digital_lpf.qformat is None,
             "fixed-point digital LPF is not vectorized")
    _require(not mon.platform.supply_dac_a.settling_time_s,
             "DAC settling dynamics are not vectorized")
    _require(state_of(rigs[0].line)["noise"]["config"].floor_mps > 0.0,
             "turbulence floor must be positive (the OU stream must "
             "draw every step for lock-step batching)")
    _require(type(rigs[0].reference) is Promag50,
             "batch engine supports the Promag50 reference only")
    # The engine keeps one value for both bridges: B must be built like A.
    bridge_a, bridge_b = _bridges(mon)
    _require(bridge_b == bridge_a,
             "bridge B must be built like bridge A (channel, supply DAC, "
             "PI config, heater and series resistance)")
    # A fleet shares one drive phase, realized by ticking rig 0's.
    if len(rigs) > 1:
        _require(isinstance(mon.controller.drive,
                            (ContinuousDrive, PulsedDrive)),
                 "unknown drive scheme")
    return sig0


#: The tracer calibration windows use: their campaign's span covers them.
_QUIET = Tracer(enabled=False)

#: The per-sample loop's regions, in loop order: every
#: :data:`~repro.runtime.kernels.LOOP_REGIONS` entry but the
#: line-pressure guards, which run once per chunk on the lane plans.
_STEP_REGIONS = tuple(r for r in LOOP_REGIONS if r != "kernel.guards")

#: Valid steps the chunk-tail flow estimator stacks at once: bounds its
#: ``(steps, 2, N)`` temporaries whatever the chunk size.
_EST_SLICE = 128


@dataclass
class WindowSums:
    """Per-row sums over one :meth:`BatchEngine.accumulate` window.

    Attributes
    ----------
    supply_sum:
        (2, N) bridge supplies (PI outputs) summed over the window's
        valid samples, in step order.
    valid:
        How many of the window's samples were valid (the drive is
        shared, so one count serves every row).
    reference_sum:
        (N,) reference-meter readings summed over every sample.
    supply:
        (2, N) bridge supplies after the window's last step.
    midpoint_a:
        (N,) bridge A's reference-arm midpoint at the last step [V],
        the ``reference_midpoint_a_v`` the scalar loop's readout holds.
    """

    supply_sum: np.ndarray
    valid: int
    reference_sum: np.ndarray
    supply: np.ndarray | None = None
    midpoint_a: np.ndarray | None = None


class BatchEngine:
    """Vectorized lock-step executor for a homogeneous fleet of rigs.

    Parameters
    ----------
    rigs:
        Structurally identical test rigs (same configs modulo seeds).
        They are consumed: RNG streams, the lead rig's drive phase and
        all schedulers advance as the engine runs.
    chunk_size:
        Samples per noise pre-draw block (memory/locality trade-off).

    Raises
    ------
    ConfigurationError
        If the fleet is empty, heterogeneous, or uses a feature the
        vectorized path does not reproduce bit-exactly (bit-true ΣΔ ADC,
        strict AFE, non-zero DAC settling, temperature compensation,
        fixed-point output IIR, non-water medium, zero turbulence floor,
        a non-Promag50 reference meter, or a bridge B not built like
        bridge A).
    SensorFault
        If any sensor is already failed.
    """

    #: The offset the rigs' objects were last written at (0: they hold
    #: the state the engine was built from), and the (2, N) supplies the
    #: DACs applied at the last step (None before the first).  Class
    #: defaults, so engines pickled before these existed restore whole.
    _synced = 0
    _ua = None
    #: What :meth:`rewind` restores (set at the end of :meth:`_extract`;
    #: None on an engine restored from a pickle, which leaves it out).
    _step0 = None

    #: The fields the main loop (and :meth:`jump_to`) rebinds or
    #: mutates.  :meth:`rewind` restores fresh copies of their step-0
    #: values; every other field the build set is constant between
    #: drops and is shared, not copied.
    _LIVE = ("_offset", "_lanes", "_x_ou", "_flick", "_x_bs", "_pm_state",
             "_u", "_t_ref", "_t_h", "_t_mem", "_cov", "_afe_state",
             "_aa_state", "_y_lpf", "_pi_sat", "_pi_int", "_pi_int_f",
             "_y_iir", "_primed", "_y_dir", "_dir", "_last_output")

    #: The per-row fields whose last axis is the fleet row: what
    #: :meth:`drop` slices and :meth:`admit` concatenates (besides the
    #: DAC table, the anti-alias state, the generators and the rigs).
    _ROWS = ("_turb_intensity", "_x_ou", "_t_mem", "_t_ref", "_ref_r0",
             "_leak", "_leak_mask", "_rating", "_g_lat", "_g_back_half",
             "_heater_cap", "_g_rim_total", "_rho_m", "_x_bs", "_rh_star",
             "_bp_denom", "_coeff_a", "_coeff_b", "_inv_exp", "_y_iir",
             "_primed", "_last_output", "_dir_offset", "_y_dir", "_dir",
             "_pm_gain", "_pm_state", "_t_h", "_h_r0", "_r_trim", "_r_foul",
             "_cov", "_afe_state", "_flick", "_y_lpf", "_pi_sat", "_u",
             "_lane_of")
    #: Per-row generator lists: one generator per row, or one list of
    #: them per bridge.
    _RNG_ROWS = ("_line_rngs", "_bs_rngs", "_pm_rngs")
    _RNG_BRIDGES = ("_bubble_rngs", "_afe_rngs", "_adc_rngs")

    def __init__(self, rigs: list[TestRig], chunk_size: int = 1024) -> None:
        _require(chunk_size >= 1, "chunk_size must be >= 1")
        self._rigs = list(rigs)
        self._chunk = int(chunk_size)
        self._n = len(self._rigs)
        self._sig = _validate_fleet(self._rigs)
        self._extract()

    # -- state extraction ----------------------------------------------------

    def _extract(self) -> None:
        """Copy fleet state into (2, N)/(N,) arrays and hoist constants.

        Every stage field is read through :func:`repro.state.state_of`;
        ``rows`` walks one key path through every rig's stage state.
        """
        rigs = self._rigs
        self._offset = 0
        mon0 = rigs[0].monitor
        sen0 = mon0.sensor
        cfg = sen0.config
        dt = mon0.platform.dt_s
        self._dt = dt
        self._drive = mon0.controller.drive

        def states(stages):
            return [state_of(stage) for stage in stages]

        def rows(states, *path):
            for key in path:
                states = [s[key] for s in states]
            return states

        mons = [r.monitor for r in rigs]
        line = states(r.line for r in rigs)
        sensor = states(m.sensor for m in mons)
        ctrl = states(m.controller for m in mons)
        est = states(m.estimator for m in mons)
        ref = states(r.reference for r in rigs)
        chans = [[m.platform.channels[c] for m in mons] for c in (0, 1)]
        afe, aa, adc, lpf = (
            [states(getattr(ch, part) for ch in row) for row in chans]
            for part in ("afe", "anti_alias", "adc", "digital_lpf"))

        # Water line (one lane: shared bulk plant and line clock;
        # per-monitor OU fluctuation).  ``_line_time`` is the line
        # clock every lane starts from.
        line0 = line[0]
        lcfg = rigs[0].line.config
        noise0 = line0["noise"]["config"]
        self._lanes = [_Lane.joining(0, line0)]
        self._lane_of = np.zeros(len(rigs), dtype=np.intp)
        self._line_time = float(line0["time_s"])
        self._a_speed = 1.0 - np.exp(-dt / lcfg.speed_tau_s)
        self._a_press = 1.0 - np.exp(-dt / lcfg.pressure_tau_s)
        self._a_temp = 1.0 - np.exp(-dt / lcfg.temperature_tau_s)
        self._turb_intensity = np.array(
            [c.intensity for c in rows(line, "noise", "config")])
        self._turb_floor = noise0.floor_mps
        self._turb_length = noise0.integral_length_m
        self._turb_min_speed = noise0.min_speed_mps
        self._x_ou = np.array(rows(line, "noise", "ou", "x"), dtype=float)
        self._line_rngs = rows(line, "noise", "ou", "rng")

        # Supply DACs: code quantization + per-instance mismatch tables.
        dac0 = mon0.platform.supply_dac_a
        self._dac_lsb = dac0.lsb_v
        self._dac_max_code = dac0.max_code
        # ``_lev[h, j, code]``: DAC ``h`` (A/B) of monitor ``j``.
        self._lev = np.array([
            rows(states(getattr(m.platform, dac) for m in mons), "levels_v")
            for dac in ("supply_dac_a", "supply_dac_b")])
        # On a non-energised drive tick every command is 0 V, which
        # quantizes to code 0 on every DAC — the supply pair is this
        # precomputed column, no quantization work needed.
        self._ua_off = self._lev[:, :, 0].copy()

        # Sensor: thermal state, realized resistances, degradation.
        self._t_h = np.array([rows(sensor, "t_a"), rows(sensor, "t_b")])
        self._t_mem = np.array(rows(sensor, "t_membrane"))
        self._t_ref = np.array(rows(sensor, "t_reference"))
        self._h_r0 = np.array([[m.sensor.heater_a.r0_ohm for m in mons],
                               [m.sensor.heater_b.r0_ohm for m in mons]])
        self._ref_r0 = np.array([m.sensor.reference.r0_ohm for m in mons])
        self._tcr_h = sen0.heater_a.material.tcr_per_k
        self._tref_h = sen0.heater_a.reference_temperature_k
        self._tcr_ref = sen0.reference.material.tcr_per_k
        self._tref_ref = sen0.reference.reference_temperature_k
        self._r_trim = np.array([rows(sensor, "bridge_a", "r_trim_ohm"),
                                 rows(sensor, "bridge_b", "r_trim_ohm")])
        self._r_series = sen0.bridge_a.r_series_ohm
        self._leak = np.array(
            [m.sensor.housing.leakage_conductance_s() for m in mons])
        self._leak_mask = self._leak == 0.0
        self._leak_zero = bool(self._leak_mask.all())
        self._rating = np.array(
            [m.sensor.housing.pressure_rating_pa for m in mons])
        self._burst_pressure = cfg.membrane.burst_pressure_pa
        self._alpha_ref = 1.0 - math.exp(-dt / cfg.reference_lag_s)
        self._geom_d = cfg.geometry.diameter_m
        self._geom_L = cfg.geometry.length_m
        self._wake2 = cfg.wake_peak_coupling * 2.0
        self._wake_peak_speed = cfg.wake_peak_speed_mps
        # Membrane-derived thermal constants (per monitor, config-equal).
        self._g_lat = np.array(rows(sensor, "g_lateral"))
        self._g_back_half = np.array(rows(sensor, "g_backside"))
        self._heater_cap = np.array(rows(sensor, "heater_capacity"))
        mem_cap = np.array(rows(sensor, "membrane_capacity"))
        self._lat_total = cfg.membrane.lateral_conductance_w_per_k
        self._g_rim_total = 2.0 * self._g_lat + self._lat_total
        self._rho_m = np.array([
            math.exp(-dt * g_rim / c)
            for g_rim, c in zip(self._g_rim_total.tolist(), mem_cap.tolist())])
        # Degradation models.
        self._enable_fouling = cfg.enable_fouling
        self._enable_bubbles = cfg.enable_bubbles
        area = [m.sensor.wetted_area_m2() for m in mons]
        self._r_foul = np.array(
            [[m.sensor.fouling_a.thermal_resistance_k_per_w(a)
              for m, a in zip(mons, area)],
             [m.sensor.fouling_b.thermal_resistance_k_per_w(a)
              for m, a in zip(mons, area)]])
        bub = cfg.bubble_config
        self._bub_nucleation = bub.nucleation_superheat_k
        self._bub_growth = bub.growth_rate_per_k_s
        self._bub_base_detach = bub.base_detach_per_s
        self._bub_shear_detach = bub.shear_detach_per_mps_s
        self._bub_idle_detach = bub.idle_detach_per_s
        self._bub_vapor_frac = bub.vapor_conductance_fraction
        self._bub_noise_frac = bub.noise_fraction
        # Gate threshold: ``active = (s > 1) & (s > nucleation)`` is
        # elementwise ``s > max(1, nucleation)``, so one comparison
        # against this decides whether the bubble section can have any
        # effect at all (given zero coverage).
        self._bub_thresh = max(1.0, self._bub_nucleation)
        self._sqrt_dtc = math.sqrt(min(1.0, 0.01 / dt))
        self._cov = np.array([rows(sensor, "bubbles_a", "coverage"),
                              rows(sensor, "bubbles_b", "coverage")])
        self._bubble_rngs = [rows(sensor, "bubbles_a", "rng"),
                             rows(sensor, "bubbles_b", "rng")]
        # Backside OU (flooded cavity only; organic fill never draws).
        bs0 = sensor[0]["backside_noise"]
        self._bs_sigma = bs0["sigma"]
        self._bs_rho = math.exp(-dt / bs0["tau_s"])
        self._bs_scale = bs0["sigma"] * math.sqrt(
            1.0 - self._bs_rho * self._bs_rho)
        self._x_bs = np.array(rows(sensor, "backside_noise", "x"), dtype=float)
        self._bs_rngs = rows(sensor, "backside_noise", "rng")

        # Acquisition chain (channels 0/1 = bridges A/B).
        ch0 = mon0.platform.channels[0]
        afe_cfg = ch0.config.afe
        self._gain = afe_cfg.gain
        self._rail = afe_cfg.rail_v
        self._residual_offset = afe_cfg.offset_v - afe_cfg.offset_trim_v
        self._alpha_bw = 1.0 - math.exp(-2.0 * math.pi * afe_cfg.bandwidth_hz * dt)
        nyquist = 0.5 / dt
        self._white_rms = afe_cfg.noise_density_v_per_rthz * math.sqrt(nyquist)
        self._afe_leak = math.exp(
            -2.0 * math.pi * afe_cfg.flicker_corner_hz * dt * 0.1)
        flicker_rms = afe_cfg.noise_density_v_per_rthz * math.sqrt(
            max(math.log(max(afe_cfg.flicker_corner_hz, 1e-3) / 1e-3), 0.0))
        self._flicker_scale = flicker_rms * math.sqrt(
            max(1.0 - self._afe_leak * self._afe_leak, 0.0))
        self._afe_state = np.array([rows(row, "state_v") for row in afe])
        self._flick = np.array([rows(row, "flicker_v") for row in afe])
        self._afe_rngs = [rows(row, "rng") for row in afe]
        self._aa_coeffs = list(aa[0][0]["coeffs"])
        self._aa_state = [
            [np.array([[st[si][sj] for st in rows(row, "state")]
                       for row in aa])
             for sj in (0, 1)]
            for si in range(len(self._aa_coeffs))]
        adc0 = adc[0][0]
        self._adc_thermal = adc0["thermal_rms_v"]
        self._adc_lsb = adc0["lsb_v"]
        self._adc_min = adc0["min_code"]
        self._adc_max = adc0["max_code"]
        self._adc_rngs = [rows(row, "rng") for row in adc]
        self._alpha_lpf = ch0.digital_lpf.alpha
        self._y_lpf = np.array([rows(row, "y_f") for row in lpf])

        # PI controllers (fixed-point codes or float, per shared PIConfig).
        pi0 = ctrl[0]["pi_a"]
        pic = mon0.controller.pi_a.config
        self._qformat = pic.qformat
        if self._qformat is not None:
            q = self._qformat
            self._q_scale = q.scale
            self._q_min_int = q.min_int
            self._q_max_int = q.max_int
            self._kp_code = pi0["kp_code"]
            self._ki_dt_code = pi0["ki_dt_code"]
            self._pi_min_code = pi0["min_code"]
            self._pi_max_code = pi0["max_code"]
            self._pi_int = np.array([rows(ctrl, "pi_a", "int_code"),
                                     rows(ctrl, "pi_b", "int_code")],
                                    dtype=np.int64)
        else:
            self._pi_kp = pic.kp
            self._pi_ki = pic.ki
            self._pi_dt = pic.dt_s
            self._pi_out_min = pic.out_min
            self._pi_out_max = pic.out_max
            self._pi_int_f = np.array([rows(ctrl, "pi_a", "integral"),
                                       rows(ctrl, "pi_b", "integral")])
        self._pi_sat = np.array([rows(ctrl, "pi_a", "saturated_sign"),
                                 rows(ctrl, "pi_b", "saturated_sign")],
                                dtype=np.int64)
        self._u = np.array([rows(ctrl, "u_a"), rows(ctrl, "u_b")])

        # Estimator: King's-law inversion + output IIR + direction logic.
        est0 = mon0.estimator
        nominal = sen0.reference.nominal_ohm
        # Firmware quirk preserved: balance power uses bridge A's trim and
        # the *nominal* reference resistance for both supplies.
        self._rh_star = np.array([
            (self._r_series * nominal) / rt for rt in self._r_trim[0].tolist()])
        self._bp_denom = (self._r_series + self._rh_star) ** 2
        self._overtemp = mon0.controller.config.overtemperature_k
        laws = [m.estimator.calibration.law for m in mons]
        self._coeff_a = np.array([law.coeff_a for law in laws])
        self._coeff_b = np.array([law.coeff_b for law in laws])
        self._inv_exp = np.array([1.0 / law.exponent for law in laws])
        self._alpha_iir = est[0]["iir"]["alpha"]
        self._y_iir = np.array(rows(est, "iir", "y_f"))
        self._primed = np.array(rows(est, "primed"), dtype=bool)
        self._last_output = np.array(rows(est, "last_output"), dtype=float)
        self._use_direction = est0.config.use_direction
        self._dir_offset = np.array(
            [m.estimator.direction.config.offset for m in mons])
        self._dir_threshold = est0.direction.config.threshold
        self._dir_hysteresis = est0.direction.config.hysteresis
        self._alpha_dir = est[0]["direction"]["filter"]["alpha"]
        self._y_dir = np.array(rows(est, "direction", "filter", "y_f"))
        self._dir = np.array(rows(est, "direction", "direction"),
                             dtype=np.int64)

        # Promag 50 reference meters.
        ref0 = rigs[0].reference
        self._pm_alpha = 1.0 - np.exp(-dt / ref0.response_time_s)
        self._pm_noise = ref0.resolution_fraction_fs * ref0.full_scale_mps
        self._pm_gain = np.array(rows(ref, "gain"))
        self._pm_state = np.array(rows(ref, "state"))
        self._pm_rngs = rows(ref, "rng")

        fields = vars(self)
        rngs = [rng for row in (self._line_rngs, self._bs_rngs,
                                self._pm_rngs, *self._bubble_rngs,
                                *self._afe_rngs, *self._adc_rngs)
                for rng in row]
        self._step0 = (
            {k: v for k, v in fields.items() if k not in self._LIVE},
            copy.deepcopy({k: v for k, v in fields.items()
                           if k in self._LIVE}),
            [(rng, rng.bit_generator.state) for rng in rngs],
            _drive_state(self._drive))

    # -- main loop -----------------------------------------------------------

    @property
    def offset(self) -> int:
        """Samples already advanced (the absolute step of the next tick).

        Starts at 0 and grows with every :meth:`run` / :meth:`advance`
        call; the ``record_every_n`` decimation phase is evaluated at
        this absolute step index and each lane's profile setpoints at
        it minus the step the lane joined at, so a run split across
        several :meth:`advance` calls lands on the same recorded ticks
        as one uninterrupted :meth:`run`.
        """
        return self._offset

    def run(self, profile: Profile, record_every_n: int = 20) -> RunResult:
        """Execute a profile over the whole fleet; decimated traces out.

        Mirrors :meth:`repro.station.rig.TestRig.run` sample for sample;
        with identical seeds the returned traces are bit-identical to N
        scalar rig runs.

        Raises
        ------
        ConfigurationError
            On an empty profile or non-positive decimation.
        SensorFault
            On membrane burst or housing overpressure (any monitor —
            the fleet shares the line, so all see the event together).
        """
        dt = self._dt
        steps = int(round(profile.duration_s / dt))
        if steps < 1:
            raise ConfigurationError("profile shorter than one loop tick")
        return self.advance(profile, steps, record_every_n)

    def advance(self, profile: Profile, steps: int,
                record_every_n: int = 20) -> RunResult:
        """Advance ``steps`` samples from the current :attr:`offset`.

        The incremental form of :meth:`run`: repeated calls walk the
        same profile clock forward, and because every engine recurrence
        carries its state per step (plant, OU trajectories, RNG
        streams, drive phase), a run sliced into arbitrary ``advance``
        windows is *bit-identical* to one uninterrupted :meth:`run` of
        the total horizon — this is the contract the streaming fleet
        service (:mod:`repro.service`) builds on.  The returned
        :class:`RunResult` holds only the window's recorded ticks
        (possibly zero of them when ``steps`` is shorter than the
        decimation stride); stitch windows with
        ``RunResult.concat(windows, axis="time")``.

        Raises
        ------
        ConfigurationError
            On a non-positive step count or decimation, or if every
            rig has been :meth:`drop`-ped.
        SensorFault
            On membrane burst or housing overpressure.
        """
        if record_every_n < 1:
            raise ConfigurationError("record_every_n must be >= 1")
        if steps < 1:
            raise ConfigurationError("advance needs at least one step")
        if self._n < 1:
            raise ConfigurationError("every rig was dropped from the engine")
        registry = get_registry()
        if registry.enabled:
            start = time.perf_counter()
            with get_tracer().span("batch.run", n_monitors=self._n,
                                   steps=steps):
                result = self._run(profile, steps, record_every_n)
            registry.histogram("runtime.advance.wall_s").observe(
                time.perf_counter() - start)
            registry.counter("runtime.advance.windows").inc()
            return result
        with get_tracer().span("batch.run", n_monitors=self._n, steps=steps):
            return self._run(profile, steps, record_every_n)

    def jump_to(self, speed_mps: float) -> None:
        """Teleport the shared line plant between advance windows.

        The engine form of :meth:`WaterLine.jump_to(speed_mps)
        <repro.station.line.WaterLine.jump_to>` on every rig's line:
        each lane's bulk speed moves to ``speed_mps`` and its bulk
        pressure and temperature to the line's defaults (2 bar,
        15 °C).  The line clocks and each row's turbulence stream
        carry on.
        """
        for lane in self._lanes:
            lane.speed = speed_mps
            lane.pressure = 2.0e5
            lane.temperature = 288.15

    def accumulate(self, profile: Profile, steps: int,
                   sums: WindowSums | None = None) -> WindowSums:
        """Advance ``steps`` samples, summing a §4 averaging window.

        The engine form of the averaging loop of
        :func:`repro.station.rig.run_calibration`: the reference meter
        is read every sample and the supplies on valid samples, and
        each row's readings are added in step order, as the scalar
        loop adds them.  Passing the previous window's ``sums``
        continues them (the same running sums, so a window cut in two
        adds up bit-identically); without it the sums start at zero.
        Nothing is recorded, and the flow estimator is not advanced:
        it never feeds the loop, and a rig being calibrated has no
        calibration to invert yet.

        Raises
        ------
        ConfigurationError
            On a non-positive step count, or if every rig was dropped.
        SensorFault
            On membrane burst or housing overpressure.
        """
        if steps < 1:
            raise ConfigurationError("accumulate needs at least one step")
        if self._n < 1:
            raise ConfigurationError("every rig was dropped from the engine")
        if sums is None:
            sums = WindowSums(supply_sum=np.zeros((2, self._n)), valid=0,
                              reference_sum=np.zeros(self._n))
        self._run(profile, steps, 1, sums)
        rt = self._ref_r0 * (1.0 + self._tcr_ref * (self._t_ref
                                                    - self._tref_ref))
        sums.supply = self._u.copy()
        sums.midpoint_a = self._ua[0] * rt / (self._r_trim[0] + rt)
        return sums

    def drop(self, indices: list[int]) -> None:
        """Remove monitors from the fleet between advances.

        All per-monitor state (thermal, filters, PI, RNG streams,
        calibration constants) is sliced down to the survivors, whose
        positions shift left to fill the gaps.  Because every
        cross-monitor interaction in the engine is either elementwise
        or a branch whose both arms are elementwise-identical, and each
        monitor draws from its own generators, the survivors' traces
        stay *bit-identical* to a fleet that never contained the
        dropped rigs — this is what lets the streaming service detach
        one client without perturbing the rest.  The shared drive phase
        stays on the engine even if rig 0 leaves (it is an
        engine-global clock, not per-rig state); each lane keeps its own
        profile clock and line plant until its last row leaves, and
        then the lane is gone.

        Raises
        ------
        ConfigurationError
            On an out-of-range or duplicated index.
        """
        drop_set = _drop_rows(indices, self._n)
        if not drop_set:
            return
        keep = [j for j in range(self._n) if j not in drop_set]

        for name in self._ROWS:
            setattr(self, name, getattr(self, name)[..., keep])
        if self._qformat is not None:
            self._pi_int = self._pi_int[..., keep]
        else:
            self._pi_int_f = self._pi_int_f[..., keep]
        if self._ua is not None:
            self._ua = self._ua[..., keep]
        self._aa_state = [[st[..., keep] for st in stage]
                          for stage in self._aa_state]
        self._lev = self._lev[:, keep]
        for name in self._RNG_ROWS:
            row = getattr(self, name)
            setattr(self, name, [row[j] for j in keep])
        for name in self._RNG_BRIDGES:
            rows = getattr(self, name)
            setattr(self, name, [[row[j] for j in keep] for row in rows])
        self._rigs = [self._rigs[j] for j in keep]
        self._n = len(keep)
        # A lane whose every row left is gone.
        used = sorted(set(self._lane_of.tolist()))
        if len(used) < len(self._lanes):
            renumber = np.zeros(len(self._lanes), dtype=np.intp)
            renumber[used] = np.arange(len(used))
            self._lanes = [self._lanes[i] for i in used]
            self._lane_of = renumber[self._lane_of]
        self._derive_row_constants()

    def _derive_row_constants(self) -> None:
        """Recompute the fleet-wide values derived from per-row fields."""
        self._ua_off = self._lev[:, :, 0].copy()
        self._leak_zero = bool(self._leak_mask.all())

    def check_admit(self, rigs: list[TestRig]) -> None:
        """Refuse rigs :meth:`admit` could not run bit-exactly.

        A rig joins only if it shares this engine's config group (its
        :func:`_signature` equals the one the engine was built with)
        and its drive scheme is at the engine's drive phase: a
        continuous drive always is, a pulsed one only at the phase the
        engine's lead drive holds (in practice at step 0).  Nothing
        changes either way.

        Raises
        ------
        ConfigurationError
            ``reason="admit"`` for a rig of another config group or at
            another drive phase; on an empty rig list.
        SensorFault
            If a rig's sensor is already failed.
        """
        _require(len(rigs) > 0, "admit needs at least one rig")
        phase = _drive_state(self._drive)
        for rig in rigs:
            if rig.monitor.sensor.failed is not None:
                raise SensorFault(rig.monitor.sensor.failed)
            if _signature(rig) != self._sig:
                raise ConfigurationError(
                    "rig is not in this engine's config group",
                    reason="admit")
            if _drive_state(rig.monitor.controller.drive) != phase:
                raise ConfigurationError(
                    "rig's drive phase differs from the engine's",
                    reason="admit")

    def admit(self, rigs: list[TestRig]) -> None:
        """Append rigs to the fleet as a lane joining at :attr:`offset`.

        The rigs become the last rows, in order.  Their lane reads the
        profile from its own step 0 and carries its own line plant and
        line time (rows joining where the last lane joined, before it
        advanced, share that lane), while every lane ticks the one
        shared drive and records at the engine's decimation phase.  A
        row's traces are *bit-identical* to a run of its rigs alone,
        recorded at the engine steps where ``offset % record_every_n``
        lines up: admit where ``offset`` is a multiple of the cadence
        to record the standalone ticks.  This is the lane counterpart
        of :meth:`drop`, and it concatenates the same per-row fields.

        Raises
        ------
        ConfigurationError, SensorFault
            As :meth:`check_admit`; nothing changes then.
        """
        rigs = list(rigs)
        self.check_admit(rigs)
        # The joiners' own one-lane engine supplies their per-row
        # fields; a lane that has not stepped since it joined here
        # takes them in.
        theirs = vars(BatchEngine(rigs, chunk_size=self._chunk))
        lane = _Lane.joining(self._offset, state_of(rigs[0].line))
        if not self._lanes or self._lanes[-1] != lane:
            self._lanes = [*self._lanes, lane]
        theirs["_lane_of"] = np.full(len(rigs), len(self._lanes) - 1,
                                     dtype=np.intp)
        for name in (*self._ROWS, "_pi_int" if self._qformat is not None
                     else "_pi_int_f"):
            setattr(self, name,
                    np.concatenate((getattr(self, name), theirs[name]),
                                   axis=-1))
        self._lev = np.concatenate((self._lev, theirs["_lev"]), axis=1)
        if self._ua is not None:
            # The supplies the joiners' DACs hold (what write_back
            # keeps for rows that have not stepped yet).
            self._ua = np.concatenate((self._ua, np.array([
                [state_of(getattr(r.monitor.platform, dac))["output_v"]
                 for r in rigs]
                for dac in ("supply_dac_a", "supply_dac_b")])), axis=1)
        self._aa_state = [
            [np.concatenate((st, new), axis=-1)
             for st, new in zip(stage, new_stage)]
            for stage, new_stage in zip(self._aa_state, theirs["_aa_state"])]
        for name in self._RNG_ROWS:
            setattr(self, name, getattr(self, name) + theirs[name])
        for name in self._RNG_BRIDGES:
            setattr(self, name, [mine + new for mine, new in zip(
                getattr(self, name), theirs[name])])
        self._rigs = self._rigs + rigs
        self._n = len(self._rigs)
        self._derive_row_constants()

    def rewind(self) -> None:
        """Return the engine to the state it was built with.

        Afterwards :attr:`offset` is 0, every row the engine was built
        with is back (even after :meth:`drop`), each generator's
        ``bit_generator`` state is restored in place and the lead
        drive's phase is reset, so the next :meth:`run` is
        byte-identical to one on a new engine over freshly built rigs.
        A run that raised partway through rewinds like any other.  The
        rigs' scheduler accounting is not rewound.

        Raises
        ------
        ConfigurationError
            (``reason="rewind"``) on an engine restored from a pickle,
            which carries no step-0 state, or one whose rigs hold a
            later state after :meth:`write_back`.
        """
        if self._step0 is None:
            raise ConfigurationError(
                "this engine was restored from a pickle and has no "
                "step-0 state to rewind to", reason="rewind")
        if self._synced:
            raise ConfigurationError(
                "write_back() handed the rigs a later state; rewind() "
                "cannot take them back", reason="rewind")
        shared, live, rngs, drive = self._step0
        vars(self).update(shared)
        vars(self).update(copy.deepcopy(live))
        self._ua = None
        for rng, state in rngs:
            rng.bit_generator.state = state
        if drive is not None:
            load_state(self._drive, drive)

    def __getstate__(self) -> dict:
        # Pickles (checkpoints, job blobs) leave the step-0 state
        # out: it serves in-process rewinds only.
        return {k: v for k, v in vars(self).items() if k != "_step0"}

    def write_back(self) -> None:
        """Write the engine's state into the objects of its rigs.

        Afterwards every rig holds, stage by stage and in each stage's
        declared layout (:func:`repro.state.state_of`), the state the
        scalar loop would have left after the same steps, and its
        :attr:`TestRig.offset <repro.station.rig.TestRig.offset>` is
        its lane's step (the engine's :attr:`offset` less the step the
        lane joined at).  A rig can then continue on its own with
        :meth:`TestRig.advance <repro.station.rig.TestRig.advance>`,
        bit-identical to a scalar run that never left it.  The
        generators are shared already: the engine draws from the rigs'
        own.  The engine stays usable.  Two things are not carried:
        the estimator skips :meth:`accumulate` windows, so it is
        written as it stood before them, and a rig whose AFE clipped
        inside the engine keeps its old sticky rail flag, because the
        engine clamps without recording the clip.
        """
        dt = self._dt
        clocks: dict[tuple, float] = {}
        drive = _drive_state(self._drive)
        quant = self._qformat is not None
        for j, rig in enumerate(self._rigs):
            lane = self._lanes[self._lane_of[j]]
            # A lane's rigs were last written when it joined, or at the
            # last write_back if that came later.
            steps = self._offset - max(self._synced, lane.start)
            mon = rig.monitor
            sensor = state_of(mon.sensor)
            sensor.update(t_a=self._t_h[0, j], t_b=self._t_h[1, j],
                          t_membrane=self._t_mem[j],
                          t_reference=self._t_ref[j])
            if self._enable_bubbles:
                sensor["bubbles_a"]["coverage"] = self._cov[0, j]
                sensor["bubbles_b"]["coverage"] = self._cov[1, j]
            sensor["backside_noise"]["x"] = (
                float(self._x_bs[j]) if self._bs_sigma > 0.0 else 0.0)
            leak = mon.sensor.housing.leakage_conductance_s()
            sensor["bridge_a"]["leakage_conductance_s"] = leak
            sensor["bridge_b"]["leakage_conductance_s"] = leak
            load_state(mon.sensor, sensor)

            ctrl = state_of(mon.controller)
            start = ctrl["time_s"]
            if (start, steps) not in clocks:
                # The scalar loop adds dt once per step; so must we.
                t = start
                for _ in range(steps):
                    t += dt
                clocks[start, steps] = t
            ctrl["time_s"] = clocks[start, steps]
            ctrl["u_a"] = float(self._u[0, j])
            ctrl["u_b"] = float(self._u[1, j])
            for h, key in enumerate(("pi_a", "pi_b")):
                ctrl[key]["saturated_sign"] = int(self._pi_sat[h, j])
                if quant:
                    ctrl[key]["int_code"] = int(self._pi_int[h, j])
                else:
                    ctrl[key]["integral"] = float(self._pi_int_f[h, j])
            load_state(mon.controller, ctrl)
            if drive is not None and mon.controller.drive is not self._drive:
                load_state(mon.controller.drive, drive)

            plat = mon.platform
            for h, (dac, ch) in enumerate(zip(
                    (plat.supply_dac_a, plat.supply_dac_b),
                    plat.channels[:2])):
                if self._ua is not None:
                    load_state(dac, {**state_of(dac),
                                     "output_v": float(self._ua[h, j])})
                load_state(ch.afe, {**state_of(ch.afe),
                                    "state_v": float(self._afe_state[h, j]),
                                    "flicker_v": float(self._flick[h, j])})
                load_state(ch.anti_alias, {
                    **state_of(ch.anti_alias),
                    "state": [[float(st[h, j]) for st in stage]
                              for stage in self._aa_state]})
                load_state(ch.digital_lpf, {**state_of(ch.digital_lpf),
                                            "y_f": float(self._y_lpf[h, j])})

            est = state_of(mon.estimator)
            est["primed"] = bool(self._primed[j])
            est["last_output"] = float(self._last_output[j])
            est["iir"]["y_f"] = float(self._y_iir[j])
            if self._use_direction:
                est["direction"]["direction"] = int(self._dir[j])
                est["direction"]["filter"]["y_f"] = float(self._y_dir[j])
            load_state(mon.estimator, est)

            line = state_of(rig.line)
            line.update(time_s=lane.time_s, speed=lane.speed,
                        pressure=lane.pressure,
                        temperature=lane.temperature)
            ou = line["noise"]["ou"]
            ou["x"] = float(self._x_ou[j])
            if steps:
                # The turbulence stream's last retune, as perturb() did.
                v_mag = abs(lane.speed)
                noise = line["noise"]["config"]
                ou["sigma"] = noise.intensity * v_mag + noise.floor_mps
                ou["tau_s"] = noise.integral_length_m / max(
                    v_mag, noise.min_speed_mps)
            load_state(rig.line, line)

            load_state(rig.reference, {**state_of(rig.reference),
                                       "state": float(self._pm_state[j])})
            rig.offset = self._offset - lane.start
        self._synced = self._offset

    def _estimate(self, u_valid: list[np.ndarray], rec_valid: list[int]
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Run the flow estimator over one chunk's valid PI outputs.

        ``u_valid`` holds the chunk's ``(2, N)`` PI outputs on valid
        samples, ``rec_valid`` how many of them each recorded tick had
        seen.  King's-law inversion, the 0.1 Hz output IIR and the
        direction comparator replay the per-sample estimator in slices
        of :data:`_EST_SLICE` steps with its elementwise association, so
        the outputs are bitwise those of stepping it.  Returns the
        recorded ``(measured, direction)`` rows; a tick recorded before
        the chunk's first valid sample holds the carried-in output.
        """
        n_rec = len(rec_valid)
        meas = np.empty((n_rec, self._n))
        dirs = np.empty((n_rec, self._n), dtype=self._dir.dtype)
        seen = np.array(rec_valid, dtype=np.intp)
        held = seen == 0
        meas[held] = self._last_output
        dirs[held] = self._dir
        rh_star, bp_denom = self._rh_star, self._bp_denom
        thr_hi = self._dir_threshold + self._dir_hysteresis
        y_iir, y_dir, dir_state = self._y_iir, self._y_dir, self._dir
        # The output and direction IIRs relax as one stacked (2, N)
        # state, each row with its own coefficient (same elementwise
        # ops, half the per-step dispatches).
        alphas = np.repeat([[self._alpha_iir], [self._alpha_dir]],
                           self._n, axis=1)
        primed = self._primed
        for s0 in range(0, len(u_valid), _EST_SLICE):
            block = np.stack(u_valid[s0:s0 + _EST_SLICE])
            ua, ub = block[:, 0], block[:, 1]
            bp_a = ua ** 2 * rh_star / bp_denom
            bp_b = ub ** 2 * rh_star / bp_denom
            g_cond = 0.5 * (bp_a + bp_b) / self._overtemp
            excess = np.maximum(g_cond - self._coeff_a, 0.0)
            speed = pow_exact(excess / self._coeff_b, self._inv_exp)
            if not primed.all():
                # A row's output IIR starts at its first valid speed.
                y_iir = np.where(primed, y_iir, speed[0])
                primed = np.ones_like(primed)
            if self._use_direction:
                pa = ua * ua
                pb = ub * ub
                total = pa + pb
                tz = total <= 0.0
                asym = np.where(tz, 0.0,
                                (pa - pb) / np.where(tz, 1.0, total))
                traj, (y_iir, y_dir) = relax_block(
                    np.stack((y_iir, y_dir)), alphas,
                    np.stack((speed, asym - self._dir_offset), axis=1))
                y_traj, d_traj = traj[:, 0], traj[:, 1]
                dir_traj, dir_state = hysteresis_block(
                    dir_state, d_traj, self._dir_threshold, thr_hi)
                out = np.where(dir_traj != 0, dir_traj.astype(float),
                               1.0) * y_traj
            else:
                y_traj, y_iir = relax_block(y_iir, self._alpha_iir, speed)
                dir_traj = np.broadcast_to(dir_state, y_traj.shape)
                out = y_traj
            sel = (seen > s0) & (seen <= s0 + len(block))
            at = seen[sel] - s0 - 1
            meas[sel] = out[at]
            dirs[sel] = dir_traj[at]
            self._last_output = out[-1].copy()
        self._y_iir, self._y_dir, self._dir = y_iir, y_dir, dir_state
        self._primed = primed
        return meas, dirs

    def _guard(self, plans: list, c: int) -> tuple[int, Exception | None]:
        """Check a chunk's line pressures against the sensor guards.

        Each lane's rows see its plant pressure: above the membrane's
        burst rating, below zero, or above the housing rating of the
        lane's weakest housing.  Returns ``(c, None)`` when no step
        trips, else the first tripping step and the error the scalar
        rig raises there (burst, then negative pressure, then housing,
        checked across the lanes in that order, as each rig checks).
        """
        burst = self._burst_pressure
        ratings = [self._rating[self._lane_of == lane].min()
                   for lane in range(len(plans))]
        first = c
        for plan, rating in zip(plans, ratings):
            p = plan.bulk_pressure
            bad = (p > burst) | (p < 0.0) | (p > rating)
            if bad.any():
                first = min(first, int(bad.argmax()))
        if first == c:
            return c, None
        pressures = [float(plan.bulk_pressure[first]) for plan in plans]
        for p in pressures:
            if p > burst:
                return first, SensorFault(
                    f"membrane burst at {p / 1e5:.2f} bar "
                    f"(rating {burst / 1e5:.2f} bar)")
        if any(p < 0.0 for p in pressures):
            return first, ConfigurationError("pressure must be non-negative")
        p, rating = next((p, rating) for p, rating
                         in zip(pressures, ratings) if p > rating)
        return first, SensorFault(f"housing rated {rating / 1e5:.1f} bar "
                                  f"failed at {p / 1e5:.1f} bar")

    def _run(self, profile: Profile, steps: int,
             record_every_n: int, sums: WindowSums | None = None
             ) -> RunResult | None:
        """The instrumented main loop behind :meth:`run`.

        Each chunk is advanced in three phases: :func:`plan_chunk`
        precomputes each lane's time axis (setpoints, shared-line plant,
        OU coefficients), scattered into per-row line tables, and
        :func:`drive_schedule` the shared drive schedule; the
        line-pressure guards check the lane plans; the time-blocked
        kernels run every feed-forward trajectory (line OU, AFE flicker
        and backside OU as one stacked AR(1), the Promag lag) and
        per-sample noise array for the whole chunk, and only the
        genuinely recurrent chain (reference/heater/membrane thermals,
        AFE state, filters, PI) stays in the per-sample loop.
        The flow estimator feeds nothing back into that chain, so the
        loop only collects the PI output of valid samples and
        :meth:`_estimate` runs it once per chunk, after the loop.

        With ``sums`` the window is a calibration window
        (:meth:`accumulate`): it records nothing, skips the estimator,
        and stays out of the run metrics, spans and profiler stages,
        since its campaign's own span accounts for it.
        """
        dt = self._dt
        n = self._n
        accumulating = sums is not None
        # Per-chunk instrumentation: one branch when disabled, one
        # perf_counter pair + histogram/counter update per chunk (never
        # per sample) when enabled.
        registry = get_registry()
        tracer = _QUIET if accumulating else get_tracer()
        observing = registry.enabled and not accumulating
        if observing:
            registry.gauge("runtime.batch.fleet_size").set(n)
            chunk_hist = registry.histogram(
                "runtime.batch.chunk_s", "per-chunk advance latency")
            plan_hist = registry.histogram(
                "runtime.kernel.plan_s",
                "per-chunk planning + trajectory-kernel latency")
            loop_hist = registry.histogram(
                "runtime.kernel.loop_s",
                "per-chunk recurrent-loop latency")
            planned_counter = registry.counter(
                "runtime.kernel.planned_samples",
                "samples whose time axis was precomputed")
            samples_counter = registry.counter(
                "runtime.batch.samples", "monitor-samples advanced")
            chunks_counter = registry.counter("runtime.batch.chunks")
            run_start = time.perf_counter()
        # Per-stage profiling (kernel.plan, kernel.guards once per
        # chunk, kernel.ar1_block, each region of the per-sample loop,
        # kernel.chunk_loop and kernel.estimator): strictly opt-in.
        # While disabled each region boundary costs one bool check;
        # while enabled, one perf_counter stamp, differenced into
        # regions once per chunk.
        profiler = get_profiler()
        profiling = profiler.enabled and not accumulating
        if profiling:
            perf_counter, process_time = time.perf_counter, time.process_time
            run_stages: dict[str, dict] = {}

            def note(stage: str, wall: float, cpu: float,
                     calls: int = 1) -> None:
                # Feed the process profiler and the run-local report the
                # result carries (RunResult.profile()).
                profiler.add(stage, wall, cpu, calls)
                totals = run_stages.setdefault(
                    stage, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0})
                totals["calls"] += calls
                totals["wall_s"] += wall
                totals["cpu_s"] += cpu
        # Recorded ticks, gathered once per chunk as (ticks, N) blocks
        # (the lanes' line times as (lanes, ticks)); the bubble
        # coverage is loop state, so it is kept per tick.
        t_blocks: list[np.ndarray] = []
        v_true: list[np.ndarray] = []
        v_ref: list[np.ndarray] = []
        v_meas: list[np.ndarray] = []
        direction: list[np.ndarray] = []
        pressure: list[np.ndarray] = []
        temperature: list[np.ndarray] = []
        coverage: list[np.ndarray] = []

        # Read-only constants hoisted out of the hot loop.  Scalar
        # constants that feed ufuncs become 0-d arrays: a 0-d operand
        # skips the per-call Python-float boxing (~0.2 us per dispatch
        # at fleet size) and the ufunc sees the identical float64
        # value, so results stay bitwise.  Values consumed by Python
        # branches (guards, flags) stay native scalars.  Per-monitor
        # constants that meet (2, N) operands get a contiguous (2, N)
        # copy (``_pair``): a ufunc that broadcasts an (N,) operand
        # costs about twice one over equal shapes, for the same
        # elementwise values.
        as0 = np.asarray
        lev = self._lev
        lev_flat = lev.reshape(-1)
        # Flat-table offset of each (DAC, monitor) row: one ``take``
        # gathers both DACs' levels.
        lev_off = np.arange(2 * n).reshape(2, n) * lev.shape[2]
        # Integer bounds that clamp float arrays are boxed as floats
        # (exact: they are small integers), so the ufunc skips the
        # per-call int-to-float cast of a mixed-type operand.
        dac_lsb, dac_max = as0(self._dac_lsb), as0(float(self._dac_max_code))
        ref_r0, tcr_ref = _pair(self._ref_r0), as0(self._tcr_ref)
        tref_ref = as0(self._tref_ref)
        r_trim, r_series = self._r_trim, as0(self._r_series)
        alpha_ref = as0(self._alpha_ref)
        h_r0, tcr_h = as0(self._h_r0), as0(self._tcr_h)
        tref_h = as0(self._tref_h)
        g_lat, rho_m = as0(self._g_lat), as0(self._rho_m)
        g_lat2 = _pair(self._g_lat)
        g_rim = as0(self._g_rim_total)
        heater_cap = _pair(self._heater_cap)
        ndt = as0(-dt)
        leak, leak_mask = _pair(self._leak), _pair(self._leak_mask)
        leak_zero = self._leak_zero
        gain = as0(self._gain)
        residual_offset = as0(self._residual_offset)
        alpha_bw, rail = as0(self._alpha_bw), as0(self._rail)
        neg_rail = as0(-self._rail)
        aa_coeffs, aa_state = self._aa_coeffs, self._aa_state
        adc_lsb = as0(self._adc_lsb)
        adc_min, adc_max = as0(float(self._adc_min)), as0(float(self._adc_max))
        alpha_lpf = as0(self._alpha_lpf)
        geom_d, geom_L = as0(self._geom_d), as0(self._geom_L)
        enable_fouling, r_foul = self._enable_fouling, as0(self._r_foul)
        enable_bubbles = self._enable_bubbles
        bub_thresh = as0(self._bub_thresh)
        bs_on = self._bs_sigma > 0.0
        ua_off = self._ua_off
        # Shared literal constants of the loop body, pre-boxed once.
        f_zero, f_one, f_half = as0(0.0), as0(1.0), as0(0.5)
        f_thirty, g_floor = as0(30.0), as0(1e-6)
        i_zero, i_one, i_neg = as0(0), as0(1), as0(-1)
        # Off-duty ticks with an exactly-zero DAC column drive no power
        # anywhere: every ``ua``-proportional term collapses to +0.0,
        # which is absorbed bitwise by the finite positive terms it is
        # added to.  ``off_zero`` gates the algebraic shortcuts below.
        off_zero = not ua_off.any()
        # ``(diff + residual_offset) * gain`` with diff == +0.0, kept in
        # the original association so -0.0 offsets flush to +0.0 exactly
        # as the live expression does.
        ro_gain = (0.0 + self._residual_offset) * self._gain
        pi_quant = self._qformat is not None
        if pi_quant:
            q_scale = as0(self._q_scale)
            q_min_f, q_max_f = as0(float(self._q_min_int)), \
                as0(float(self._q_max_int))
            pi_step = q_pi_step(self._qformat, self._ki_dt_code,
                                self._kp_code, self._pi_min_code,
                                self._pi_max_code, n)
        else:
            pi_kp, pi_ki = as0(self._pi_kp), as0(self._pi_ki)
            pi_dt = as0(self._pi_dt)
            pi_out_min = as0(self._pi_out_min)
            pi_out_max = as0(self._pi_out_max)
        pm_noise = self._pm_noise
        # Single anti-alias stage is the common configuration; unpack it
        # once so the hot loop skips the zip machinery.
        single_stage = len(aa_coeffs) == 1
        if single_stage:
            aab0, aab1, aab2, _aa0, aaa1, aaa2 = (
                as0(v) for v in aa_coeffs[0])
            aast = aa_state[0]
        # Hot-loop callables bound to locals (skips the global/attr
        # lookups per dispatch).
        np_min, np_max, np_where = np.minimum, np.maximum, np.where
        np_abs, np_sign = np.abs, np.sign
        np_trunc, np_copysign = np.trunc, np.copysign
        np_floor, np_int64 = np.floor, np.int64
        or_all = np.logical_or.reduce
        vexp = exp_exact
        film = film_conductance

        # Recurrent state mirrored into locals for the loop and written
        # back after the chunk loop.  The fault paths (guard raises)
        # leave the attribute mirrors stale, which is safe: a raised run
        # spends the engine, so they are never re-read before rewind()
        # replaces them.
        u = self._u
        t_ref, t_h, t_mem = self._t_ref, self._t_h, self._t_mem
        cov = self._cov
        afe_state, y_lpf = self._afe_state, self._y_lpf
        pi_sat = self._pi_sat
        if pi_quant:
            pi_int = self._pi_int
        else:
            pi_int_f = self._pi_int_f
        if accumulating:
            supply_sum, ref_sum = sums.supply_sum, sums.reference_sum
            n_valid = sums.valid

        # Operating-point resistances and the bridge-arm denominators
        # carried across steps: step k's post-step values are bitwise
        # step k+1's pre-step values (same formula, same state), so
        # each is computed once per step, not twice.  ``rt`` is held
        # as (2, N), both rows the monitor's reference resistance.
        rt = ref_r0 * (1.0 + tcr_ref * (t_ref - tref_ref))
        rt_den = r_trim + rt
        rh = h_r0 * (1.0 + tcr_h * (t_h - tref_h))
        rh_eff = rh if leak_zero else np.where(
            leak_mask, rh, 1.0 / (1.0 / rh + leak))
        rh_den = r_series + rh_eff
        if not bs_on:
            g_back = _pair(self._g_back_half * 1.0)
        cov_nonzero = bool((cov > 0.0).any())

        # Steps are absolute indices on the engine clock: the drive
        # phase and the decimation condition see ``start + k``, each
        # lane's profile setpoints ``start + k - lane.start``, so an
        # advance window resumes exactly where the previous one
        # stopped.
        lanes, lane_of = self._lanes, self._lane_of
        # A result whose lanes joined at different steps carries each
        # row's line time (RunResult.take hands a lane its own axis).
        lane_times = any(lane.start for lane in lanes)
        start0 = self._offset
        end = start0 + steps
        for start in range(start0, end, self._chunk):
            c = min(self._chunk, end - start)
            if observing:
                chunk_start = time.perf_counter()
            with tracer.span("kernel.plan", samples=c):
                if profiling:
                    prof_w, prof_c = perf_counter(), process_time()
                # Time axis: each lane's setpoints, plant and OU
                # coefficients, and the drive schedule all lanes share
                # — everything loop-invariant per step.
                plans = [plan_chunk(
                    profile, dt, start - lane.start, c,
                    speed=lane.speed, pressure=lane.pressure,
                    temperature=lane.temperature, time_s=lane.time_s,
                    a_speed=float(self._a_speed),
                    a_press=float(self._a_press),
                    a_temp=float(self._a_temp),
                    turb_length=self._turb_length,
                    turb_min_speed=self._turb_min_speed) for lane in lanes]
                energise, control_active, sample_valid = drive_schedule(
                    self._drive, dt, c)

                def table(name: str) -> np.ndarray:
                    # A lane quantity scattered to its rows: (c, N).
                    return np.stack([getattr(plan, name) for plan in plans],
                                    axis=1)[:, lane_of]

                bulk_v = table("bulk_speed")
                bulk_p = table("bulk_pressure")
                tf_all = table("bulk_temp")
                tf2_all = _pair(tf_all)
                if profiling:
                    now_w, now_c = perf_counter(), process_time()
                    note("kernel.plan", now_w - prof_w, now_c - prof_c)
                    prof_w, prof_c = now_w, now_c
                # The line-pressure guards, once per chunk: the loop
                # stops before the first step that trips one.
                c_run, fault = self._guard(plans, c)
                if profiling:
                    now_w, now_c = perf_counter(), process_time()
                    note("kernel.guards", now_w - prof_w, now_c - prof_c,
                         calls=c)

                # Pre-draw this chunk's gaussian blocks from the live streams.
                xi_line = np.stack(
                    [rng.standard_normal(c) for rng in self._line_rngs])
                if bs_on:
                    xi_bs = np.stack(
                        [rng.standard_normal(c) for rng in self._bs_rngs])
                afe_blocks = [
                    np.stack([rng.standard_normal(2 * c) for rng in row])
                    for row in self._afe_rngs]
                # The AFE and ADC blocks are laid out (c, 2, N), step
                # first, so each step reads one contiguous (2, N) slab:
                # a ufunc over a strided step slice costs about twice.
                xi_flick = np.stack([blk[:, 0::2].T for blk in afe_blocks],
                                    axis=1)
                xi_white = np.stack([blk[:, 1::2].T for blk in afe_blocks],
                                    axis=1)
                xi_adc = np.stack(
                    [np.stack([rng.standard_normal(c) for rng in row],
                              axis=1)
                     for row in self._adc_rngs], axis=1)
                xi_pm = np.stack(
                    [rng.standard_normal(c) for rng in self._pm_rngs])

                # Time-blocked trajectory kernels: every feed-forward
                # stochastic process runs for the whole chunk at once.
                # The profiling stage covers the whole region (AR(1)
                # recurrences, relaxation kernel, and their elementwise
                # input prep) under the name "kernel.ar1_block".
                if profiling:
                    prof_w, prof_c = perf_counter(), process_time()
                # The turbulence OU (N rows), the AFE flicker (2N) and
                # the backside OU (N, flooded cavity only) run as one
                # stacked AR(1) over a (c, R) coefficient table.
                sigma_ou = (self._turb_intensity * table("v_mag")
                            + self._turb_floor)
                width = (4 if bs_on else 3) * n
                rho_tab = np.empty((c, width))
                ar1_noise = np.empty((c, width))
                rho_tab[:, :n] = table("rho_ou")
                rho_tab[:, n:3 * n] = self._afe_leak
                ar1_noise[:, :n] = (sigma_ou * table("ou_sqrt")) * xi_line.T
                ar1_noise[:, n:3 * n] = (self._flicker_scale
                                         * xi_flick).reshape(c, 2 * n)
                ar1_state = [self._x_ou, self._flick.ravel()]
                if bs_on:
                    rho_tab[:, 3 * n:] = self._bs_rho
                    ar1_noise[:, 3 * n:] = self._bs_scale * xi_bs.T
                    ar1_state.append(self._x_bs)
                ar1_traj, ar1_last = ar1_block(
                    np.concatenate(ar1_state), rho_tab, ar1_noise)
                self._x_ou = ar1_last[:n]
                self._flick = ar1_last[n:3 * n].reshape(2, n)
                v_local_all = bulk_v + ar1_traj[:, :n]
                absv_all = np.abs(v_local_all)
                x_wake = absv_all / self._wake_peak_speed
                coupling_all = _pair(
                    self._wake2 * x_wake / (1.0 + x_wake * x_wake))
                # Each monitor's downstream heater: B (row 1) in forward
                # flow, A (row 0) in reverse.
                fwd_all = v_local_all >= 0.0
                down_all = np.stack((~fwd_all, fwd_all), axis=1)
                v_eff_all = _pair(
                    np.maximum(absv_all, NATURAL_CONVECTION_FLOOR))
                if enable_bubbles:
                    detach_all = (self._bub_base_detach
                                  + self._bub_shear_detach * absv_all)
                noise_gain_all = (self._white_rms * xi_white
                                  + ar1_traj[:, n:3 * n].reshape(c, 2, n)
                                  ) * gain
                if bs_on:
                    self._x_bs = ar1_last[3 * n:]
                    g_back_all = _pair(self._g_back_half * np.maximum(
                        1.0 + ar1_traj[:, 3 * n:], 0.1))
                adc_noise_all = self._adc_thermal * xi_adc
                pm_traj, self._pm_state = relax_block(
                    self._pm_state, self._pm_alpha, bulk_v * self._pm_gain)
                if accumulating:
                    # An averaging window reads the meter (state +
                    # resolution noise) every sample.
                    meter_all = pm_traj + pm_noise * xi_pm.T
                if not bs_on:
                    # With a constant backside conductance the
                    # ``g_back * t_fluid`` term of the heater ambient is
                    # a per-chunk table (same elementwise mul).
                    gbtf_all = tf2_all * g_back
                # The membrane rim's ``lat_total * t_fluid`` term.
                lat_tf_all = self._lat_total * tf_all
                if profiling:
                    now_w, now_c = perf_counter(), process_time()
                    note("kernel.ar1_block", now_w - prof_w, now_c - prof_c)
            if observing:
                plan_end = time.perf_counter()
                plan_hist.observe(plan_end - chunk_start)
                planned_counter.inc(c)

            u_valid: list[np.ndarray] = []
            keep_u = u_valid.append
            rec_valid: list[int] = []
            rec_k: list[int] = []
            if profiling:
                stamps: list[float] = []
                stamp = stamps.append
                loop_w, loop_c = perf_counter(), process_time()
            for k in range(c_run):
                if profiling:
                    stamp(perf_counter())
                i = start + k
                t_f = tf2_all[k]

                # Supply DACs: quantize + mismatch table — but only when
                # the drive energises the bridges; on off ticks every
                # command quantizes to code 0 and the pair is the
                # precomputed column-0 levels.
                on = energise[k]
                live = on or not off_zero
                if on:
                    # floor-then-clamp equals clamp-then-int-truncate
                    # for this non-negative, integral-bounds clamp, so
                    # the explicit floor dispatch is dropped.
                    codes = np_min(
                        np_max(u / dac_lsb + f_half, f_zero),
                        dac_max).astype(np_int64)
                    codes += lev_off
                    ua = lev_flat.take(codes)
                else:
                    ua = ua_off

                if profiling:
                    stamp(perf_counter())

                # Reference resistor: lagged tracking + self-heating
                # bias (``rt`` carries the pre-step resistance).  The
                # two bridge branches are computed rows-joint — the
                # elementwise values, and the a-then-b order of the
                # power sum, match the per-row form exactly.  With a
                # zero supply the reference power is exactly +0.0 and
                # the target collapses to the fluid temperature.
                if live:
                    i_r = ua / rt_den
                    p_r = i_r * i_r * rt
                    p_ref = p_r[0] + p_r[1]
                    t_ref_target = tf_all[k] + f_thirty * p_ref
                    t_ref = t_ref + alpha_ref * (t_ref_target - t_ref)
                else:
                    t_ref = t_ref + alpha_ref * (tf_all[k] - t_ref)
                rt = ref_r0 * (f_one + tcr_ref * (t_ref - tref_ref))
                rt_den = r_trim + rt

                if profiling:
                    stamp(perf_counter())

                # Wake coupling → inlet temperatures (old heater temps).
                # ``warm`` is the rows-joint form of the per-row
                # coupling * max(t_h - t_fluid, 0) products (elementwise
                # identical).  The downstream heater's inlet is the
                # fluid warmed by the other row's wake (``warm[::-1]``);
                # the upstream one sees the fluid itself.
                dth = t_h - t_f
                warm = coupling_all[k] * np_max(dth, f_zero)
                t_in = np_where(down_all[k], t_f + warm[::-1], t_f)

                if profiling:
                    stamp(perf_counter())

                # Clean film conductance at the film temperature.
                film_t = f_half * (t_h + t_f)
                g = film(v_eff_all[k], film_t, geom_d, geom_L)

                if profiling:
                    stamp(perf_counter())

                # Fouling: deposit resistance in series with the film.
                if enable_fouling:
                    g = f_one / (f_one / g + r_foul)

                if profiling:
                    stamp(perf_counter())

                # Bubbles: coverage dynamics + multiplicative churn noise.
                # With zero coverage and no element past the nucleation
                # gate the whole section is the identity (growth and dc
                # are exactly 0.0, factor and noise exactly 1.0, and
                # ``g * 1.0`` is bitwise ``g``), so it is skipped; the
                # gate comparison reproduces ``active.any()`` exactly
                # because ``(s > 1) & (s > nuc)`` is ``s > max(1, nuc)``
                # elementwise.  No RNG draw is skipped: churn noise only
                # draws where coverage is already positive.
                if enable_bubbles and (
                        cov_nonzero or or_all(dth > bub_thresh, axis=None)):
                    superheat = dth
                    powered = superheat > 1.0
                    active = powered & (superheat > self._bub_nucleation)
                    growth = np.where(
                        active,
                        self._bub_growth * (superheat - self._bub_nucleation),
                        0.0)
                    if active.any():
                        # Each row boils at its own lane's pressure.
                        t_boil = np.array([
                            float(boiling_temperature(max(
                                float(plan.bulk_pressure[k]) + 101_325.0,
                                5_000.0)))
                            for plan in plans])[lane_of]
                        growth = growth + np.where(
                            active & (t_h >= t_boil),
                            10.0 * self._bub_growth * (t_h - t_boil + 1.0),
                            0.0)
                    detach = np.where(powered, detach_all[k],
                                      detach_all[k] + self._bub_idle_detach)
                    dc = growth * (1.0 - cov) - detach * cov
                    cov = np.minimum(
                        np.maximum(cov + dc * dt, 0.0), 0.999)
                    factor = 1.0 - cov * (1.0 - self._bub_vapor_frac)
                    noise = np.ones((2, n))
                    if np.any(cov > 0.0):
                        for h in (0, 1):
                            row = cov[h]
                            for m in range(n):
                                cvg = float(row[m])
                                if cvg > 0.0:
                                    sig = self._bub_noise_frac * cvg
                                    noise[h, m] = 1.0 + sig * float(
                                        self._bubble_rngs[h][m].normal()
                                    ) * self._sqrt_dtc
                    g = g * (factor * noise)
                    cov_nonzero = bool((cov > 0.0).any())
                g = np_max(g, g_floor)

                if profiling:
                    stamp(perf_counter())

                # Backside conductance fluctuation (flooded cavity only;
                # the OU trajectory is precomputed per chunk).
                if bs_on:
                    g_back = g_back_all[k]
                    gbtf = g_back * t_f
                else:
                    gbtf = gbtf_all[k]

                if profiling:
                    stamp(perf_counter())

                # Heater powers at the pre-step operating point (``rh``
                # and ``rh_eff`` carry the pre-step resistances).  A
                # zero supply dissipates exactly +0.0, which the finite
                # positive conduction terms absorb bitwise.
                rh_old = rh
                g_total = g + g_lat2 + g_back
                if live:
                    branch_i = ua / rh_den
                    if leak_zero:
                        i_h = branch_i
                    else:
                        i_h = np_where(leak_mask, branch_i,
                                       branch_i * rh_eff / rh_old)
                    p_h = i_h * i_h * rh_old
                    t_inf = (p_h + g * t_in + g_lat * t_mem
                             + gbtf) / g_total
                else:
                    t_inf = (g * t_in + g_lat * t_mem + gbtf) / g_total
                arg = ndt * g_total / heater_cap
                rho_h = vexp(arg)
                t_h = t_inf + (t_h - t_inf) * rho_h

                if profiling:
                    stamp(perf_counter())

                # Membrane rim update (new heater temps).
                t_rim_inf = (g_lat * (t_h[0] + t_h[1])
                             + lat_tf_all[k]) / g_rim
                t_mem = t_rim_inf + (t_mem - t_rim_inf) * rho_m

                if profiling:
                    stamp(perf_counter())

                # Bridge readout at the post-step operating point.
                rh = h_r0 * (f_one + tcr_h * (t_h - tref_h))
                if leak_zero:
                    rh_eff = rh
                else:
                    rh_eff = np_where(leak_mask, rh,
                                      f_one / (f_one / rh + leak))
                rh_den = r_series + rh_eff

                if profiling:
                    stamp(perf_counter())

                # AFE: gain + offset, precomputed 1/f + white noise,
                # bandwidth, rails.  With a zero supply both bridge
                # mid-points read exactly +0.0, so the offset-and-gain
                # term is the precomputed ``ro_gain``.
                if live:
                    v_meas_mid = ua * rh_eff / rh_den
                    v_ref_mid = ua * rt / rt_den
                    diff = v_meas_mid - v_ref_mid
                    noisy = (diff + residual_offset) * gain \
                        + noise_gain_all[k]
                else:
                    noisy = ro_gain + noise_gain_all[k]
                afe_state = afe_state + alpha_bw * (noisy - afe_state)
                afe_state = np_min(np_max(afe_state, neg_rail), rail)

                if profiling:
                    stamp(perf_counter())

                # Anti-alias biquads (direct-form II transposed).
                y = afe_state
                if single_stage:
                    out = aab0 * y + aast[0]
                    aast[0] = aab1 * y - aaa1 * out + aast[1]
                    aast[1] = aab2 * y - aaa2 * out
                    y = out
                else:
                    for (b0, b1, b2, _a0, a1, a2), st in zip(
                            aa_coeffs, aa_state):
                        out = b0 * y + st[0]
                        st[0] = b1 * y - a1 * out + st[1]
                        st[1] = b2 * y - a2 * out
                        y = out

                if profiling:
                    stamp(perf_counter())

                # Behavioural ADC: thermal noise, round-to-nearest, clamp.
                noisy_adc = y + adc_noise_all[k]
                # copysign(0.5, x) equals where(x >= 0, 0.5, -0.5) up
                # to the sign of a zero input, and a ±0.0 code washes
                # out of the LPF identically, so the quantized output
                # is unchanged with one dispatch fewer.
                q_codes = np_min(np_max(
                    np_trunc(noisy_adc / adc_lsb
                             + np_copysign(f_half, noisy_adc)),
                    adc_min), adc_max)
                volts = q_codes * adc_lsb

                if profiling:
                    stamp(perf_counter())

                # Digital one-pole LPF, then input-referred error.
                y_lpf = y_lpf + alpha_lpf * (volts - y_lpf)
                err = -(y_lpf / gain)

                if profiling:
                    stamp(perf_counter())

                # PI control (gated by the drive scheme).
                if control_active[k]:
                    if pi_quant:
                        err_code = np_min(np_max(
                            np_floor(err * q_scale + f_half),
                            q_min_f), q_max_f).astype(np_int64)
                        out_code, pi_int, pi_sat = pi_step(
                            err_code, pi_int, pi_sat)
                        u = out_code / q_scale
                    else:
                        cond = (pi_sat == i_zero) | (np_sign(err) != pi_sat)
                        pi_int_f = np_where(
                            cond,
                            pi_int_f + pi_ki * err * pi_dt,
                            pi_int_f)
                        raw = pi_kp * err + pi_int_f
                        u = np_min(np_max(
                            raw, pi_out_min), pi_out_max)
                        pi_sat = np_where(
                            raw > pi_out_max, i_one,
                            np_where(raw < pi_out_min, i_neg, i_zero))
                        pi_int_f = np_min(np_max(
                            pi_int_f,
                            pi_out_min - pi_kp * np_abs(err)),
                            pi_out_max + pi_kp * np_abs(err))

                if profiling:
                    stamp(perf_counter())

                if accumulating:
                    # A §4 averaging window: the meter is read every
                    # sample and the supplies on valid ones.
                    ref_sum = ref_sum + meter_all[k]
                    if sample_valid[k]:
                        supply_sum = supply_sum + u
                        n_valid += 1
                else:
                    # The flow estimator reads only the PI output of
                    # valid samples (PI rebinds ``u``, never mutates
                    # it) and feeds nothing back, so it runs after the
                    # loop; a recorded tick notes how many valid
                    # samples the chunk has seen so far.
                    if sample_valid[k]:
                        keep_u(u)
                    if i % record_every_n == 0:
                        rec_k.append(k)
                        rec_valid.append(len(u_valid))
                        coverage.append(np.maximum(cov[0], cov[1]))

            if fault is not None:
                raise fault

            if profiling:
                now_w, now_c = perf_counter(), process_time()
                loop_wall, loop_cpu = now_w - loop_w, now_c - loop_c
                note("kernel.chunk_loop", loop_wall, loop_cpu)
                # Each step stamped the clock at the top and at the end
                # of every region; one accumulate per region per chunk
                # keeps the profiler's dict lookups out of the hot loop.
                # Regions get the loop's CPU time in proportion to their
                # wall time (a CPU clock read per boundary would cost
                # more than most regions take).
                laps = np.diff(np.reshape(stamps, (c, len(_STEP_REGIONS) + 1)),
                               axis=1).sum(axis=0)
                share = loop_cpu / loop_wall if loop_wall > 0.0 else 0.0
                for stage, wall in zip(_STEP_REGIONS, laps.tolist()):
                    note(stage, wall, wall * share, calls=c)
            if not accumulating:
                if profiling:
                    prof_w, prof_c = perf_counter(), process_time()
                meas, dirs = self._estimate(u_valid, rec_valid)
                if rec_k:
                    # The recorded ticks' line quantities and Promag 50
                    # readings (state + resolution noise, which only
                    # exist at recorded ticks), gathered per chunk.
                    ks = np.array(rec_k)
                    t_blocks.append(np.stack(
                        [plan.line_time[ks] for plan in plans]))
                    v_true.append(bulk_v[ks])
                    v_ref.append(pm_traj[ks] + pm_noise * xi_pm[:, ks].T)
                    pressure.append(bulk_p[ks])
                    temperature.append(tf_all[ks])
                    v_meas.append(meas)
                    direction.append(dirs)
                if profiling:
                    now_w, now_c = perf_counter(), process_time()
                    note("kernel.estimator", now_w - prof_w, now_c - prof_c)

            # Carry each lane's plant into the next chunk's plan.
            for lane, plan in zip(lanes, plans):
                lane.speed = float(plan.bulk_speed[c - 1])
                lane.pressure = float(plan.bulk_pressure[c - 1])
                lane.temperature = float(plan.bulk_temp[c - 1])
                lane.time_s = float(plan.line_time[c - 1])

            if observing:
                now = time.perf_counter()
                loop_hist.observe(now - plan_end)
                chunk_hist.observe(now - chunk_start)
                samples_counter.inc(c * n)
                chunks_counter.inc()

        # Publish the local state mirrors back to the engine attributes.
        self._u = u
        self._t_ref, self._t_h, self._t_mem = t_ref, t_h, t_mem
        self._cov = cov
        self._afe_state, self._y_lpf = afe_state, y_lpf
        self._pi_sat = pi_sat
        if pi_quant:
            self._pi_int = pi_int
        else:
            self._pi_int_f = pi_int_f
        self._ua = ua.copy()
        if accumulating:
            sums.supply_sum, sums.reference_sum = supply_sum, ref_sum
            sums.valid = n_valid

        if observing:
            elapsed = time.perf_counter() - run_start
            if elapsed > 0.0:
                registry.gauge("runtime.batch.samples_per_s").set(
                    steps * n / elapsed)

        for rig in self._rigs:
            rig.monitor.platform.scheduler.bulk_tick(steps)

        self._offset = end
        if accumulating:
            return None

        if t_blocks:
            def rows(blocks):
                # (ticks, N) blocks to one C-ordered (N, ticks) trace.
                return np.ascontiguousarray(np.concatenate(blocks).T)

            times = np.concatenate(t_blocks, axis=1)
            result = RunResult(
                time_s=times[lane_of[0]].copy(),
                true_speed_mps=rows(v_true),
                reference_mps=rows(v_ref),
                measured_mps=rows(v_meas),
                direction=rows(direction),
                pressure_pa=rows(pressure),
                temperature_k=rows(temperature),
                bubble_coverage=np.stack(coverage, axis=1),
            )
            if lane_times:
                result.set_lane_time(times[lane_of])
        else:
            # A window shorter than the decimation stride can record
            # zero ticks; the state still advanced, so hand back an
            # empty-but-well-shaped result the caller can concat.
            result = RunResult.empty(n)
        if profiling:
            result.attach_profile(run_stages)
        return result

