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
  backside OU, Promag lag) as a time-blocked kernel.  ``numerics="fast"``
  additionally swaps the libm transcendentals for numpy's vectorized
  ``exp``/``power`` (within 1e-9 relative error, identical RNG streams).

The engine *consumes* the rigs passed to it: their RNG streams advance,
the first rig's drive scheme is ticked, and every platform scheduler is
bulk-advanced.  Treat the rigs as spent after :meth:`BatchEngine.run`
unless :meth:`BatchEngine.write_back` hands them their state back; for
repeatable runs build fresh rigs (see :class:`repro.runtime.Session`).

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
from repro.runtime.kernels import (ar1_block, exp_exact, film_conductance,
                                   plan_chunk, pow_exact, relax_block,
                                   resolve_numerics)
from repro.runtime.result import RunResult
from repro.state import load_state, state_of
from repro.station.profiles import Profile
from repro.station.rig import TestRig

__all__ = ["BatchEngine", "WindowSums"]


def _require(condition: bool, message: str) -> None:
    """Raise ConfigurationError with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


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


def _validate_fleet(rigs: list[TestRig]) -> None:
    """Refuse fleets the vectorized path cannot reproduce bit-exactly.

    Every rig's :func:`_signature` must equal rig 0's; a fleet that
    splits is refused naming its config groups.  Rig 0 then speaks for
    the fleet: it must use only features the engine reproduces, and its
    bridge B must be built like bridge A, because the engine keeps one
    value for both bridges.

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


#: The tracer calibration windows use: their campaign's span covers them.
_QUIET = Tracer(enabled=False)

#: Back-compat alias: the exact-mode elementwise exponential now lives in
#: :mod:`repro.runtime.kernels`.
_vexp = exp_exact


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
    numerics:
        ``"exact"`` (default) keeps every transcendental on the libm
        scalar path and stays bit-identical to the scalar rigs;
        ``"fast"`` switches the chunk kernels to numpy's vectorized
        ``exp``/``power`` (within 1e-9 relative error of exact, same
        RNG streams).  A :class:`repro.runtime.kernels.Numerics`
        policy is also accepted.

    Raises
    ------
    ConfigurationError
        If the fleet is empty, heterogeneous, or uses a feature the
        vectorized path does not reproduce bit-exactly (bit-true ΣΔ ADC,
        strict AFE, non-zero DAC settling, temperature compensation,
        fixed-point output IIR, non-water medium, zero turbulence floor,
        a non-Promag50 reference meter, or a bridge B not built like
        bridge A); with ``reason="numerics"`` for an unknown numerics
        mode.
    SensorFault
        If any sensor is already failed.
    """

    #: The offset the rigs' objects were last written at (0: they hold
    #: the state the engine was built from), and the (2, N) supplies the
    #: DACs applied at the last step (None before the first).  Class
    #: defaults, so engines pickled before these existed restore whole.
    _synced = 0
    _ua = None

    def __init__(self, rigs: list[TestRig], chunk_size: int = 1024,
                 numerics: str = "exact") -> None:
        _require(chunk_size >= 1, "chunk_size must be >= 1")
        self._rigs = list(rigs)
        self._chunk = int(chunk_size)
        self._n = len(self._rigs)
        self._numerics = resolve_numerics(numerics)
        self._fast = self._numerics == "fast"
        _validate_fleet(self._rigs)
        self._extract()

    @property
    def numerics(self) -> str:
        """The resolved numerics mode (``"exact"`` or ``"fast"``)."""
        return self._numerics

    # -- state extraction ----------------------------------------------------

    def _extract(self) -> None:
        """Copy fleet state into (2, N)/(N,) arrays and hoist constants.

        Every stage field is read through :func:`repro.state.state_of`;
        ``rows`` walks one key path through every rig's stage state.
        """
        rigs = self._rigs
        n = self._n
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

        # Water line (shared bulk plant, per-monitor OU fluctuation).
        line0 = line[0]
        lcfg = rigs[0].line.config
        noise0 = line0["noise"]["config"]
        self._bulk_speed = np.float64(line0["speed"])
        self._bulk_pressure = np.float64(line0["pressure"])
        self._bulk_temp = np.float64(line0["temperature"])
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
        self._lev_a = np.stack(rows(
            states(m.platform.supply_dac_a for m in mons), "levels_v"))
        self._lev_b = np.stack(rows(
            states(m.platform.supply_dac_b for m in mons), "levels_v"))
        self._iota = np.arange(n)
        # On a non-energised drive tick every command is 0 V, which
        # quantizes to code 0 on every DAC — the supply pair is this
        # precomputed column, no quantization work needed.
        self._ua_off = np.stack([self._lev_a[:, 0], self._lev_b[:, 0]])

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
        self._min_rating = min(m.sensor.housing.pressure_rating_pa for m in mons)
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
            self._q_half = 1 << (q.frac_bits - 1)
            self._q_shift = q.frac_bits
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
        self._primed = est[0]["primed"]
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

    # -- per-step kernels ----------------------------------------------------

    def _qmul(self, code: int, arr: np.ndarray) -> np.ndarray:
        """Vector Q-format saturating multiply (round-half-up shift)."""
        product = code * arr
        rounded = (product + self._q_half) >> self._q_shift
        return np.minimum(np.maximum(rounded, self._q_min_int),
                          self._q_max_int)

    # -- main loop -----------------------------------------------------------

    @property
    def offset(self) -> int:
        """Samples already advanced (the absolute step of the next tick).

        Starts at 0 and grows with every :meth:`run` / :meth:`advance`
        call; profile setpoints and the ``record_every_n`` decimation
        phase are both evaluated at this absolute step index, so a run
        split across several :meth:`advance` calls lands on the same
        recorded ticks as one uninterrupted :meth:`run`.
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
        the bulk speed moves to ``speed_mps`` and the bulk pressure and
        temperature to the line's defaults (2 bar, 15 °C).  The line
        clock and each row's turbulence stream carry on.
        """
        self._bulk_speed = speed_mps
        self._bulk_pressure = 2.0e5
        self._bulk_temp = 288.15

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
        and line plant stay on the engine even if rig 0 leaves (they
        are engine-global clocks, not per-rig state).

        Raises
        ------
        ConfigurationError
            On an out-of-range or duplicated index.
        """
        drop_set = _drop_rows(indices, self._n)
        if not drop_set:
            return
        keep = [j for j in range(self._n) if j not in drop_set]

        for name in ("_turb_intensity", "_x_ou", "_t_mem", "_t_ref",
                     "_ref_r0", "_leak", "_leak_mask", "_g_lat",
                     "_g_back_half", "_heater_cap", "_g_rim_total",
                     "_rho_m", "_x_bs", "_rh_star", "_bp_denom",
                     "_coeff_a", "_coeff_b", "_inv_exp", "_y_iir",
                     "_last_output", "_dir_offset", "_y_dir", "_dir",
                     "_pm_gain", "_pm_state",
                     "_t_h", "_h_r0", "_r_trim", "_r_foul", "_cov",
                     "_afe_state", "_flick", "_y_lpf", "_pi_sat", "_u"):
            setattr(self, name, getattr(self, name)[..., keep])
        if self._qformat is not None:
            self._pi_int = self._pi_int[..., keep]
        else:
            self._pi_int_f = self._pi_int_f[..., keep]
        if self._ua is not None:
            self._ua = self._ua[..., keep]
        self._aa_state = [[st[..., keep] for st in stage]
                          for stage in self._aa_state]
        self._lev_a = self._lev_a[keep]
        self._lev_b = self._lev_b[keep]
        for name in ("_line_rngs", "_bs_rngs", "_pm_rngs"):
            row = getattr(self, name)
            setattr(self, name, [row[j] for j in keep])
        for name in ("_bubble_rngs", "_afe_rngs", "_adc_rngs"):
            rows = getattr(self, name)
            setattr(self, name, [[row[j] for j in keep] for row in rows])

        self._rigs = [self._rigs[j] for j in keep]
        self._n = len(keep)
        self._iota = np.arange(self._n)
        self._ua_off = np.stack([self._lev_a[:, 0], self._lev_b[:, 0]])
        self._leak_zero = bool(self._leak_mask.all())
        self._min_rating = min(
            (r.monitor.sensor.housing.pressure_rating_pa
             for r in self._rigs), default=math.inf)

    def write_back(self) -> None:
        """Write the engine's state into the objects of its rigs.

        Afterwards every rig holds, stage by stage and in each stage's
        declared layout (:func:`repro.state.state_of`), the state the
        scalar loop would have left after the same steps, and its
        :attr:`TestRig.offset <repro.station.rig.TestRig.offset>` is
        the engine's.  A rig can then continue on its own with
        :meth:`TestRig.advance <repro.station.rig.TestRig.advance>`,
        bit-identical to a scalar run that never left it.  The
        generators are shared already: the engine draws from the rigs'
        own.  The engine stays usable.  Two things are not carried:
        the estimator skips :meth:`accumulate` windows, so it is
        written as it stood before them, and a rig whose AFE clipped
        inside the engine keeps its old sticky rail flag, because the
        engine clamps without recording the clip.
        """
        steps = self._offset - self._synced
        dt = self._dt
        clocks: dict[float, float] = {}
        drive = (state_of(self._drive)
                 if isinstance(self._drive, PulsedDrive) else None)
        quant = self._qformat is not None
        v_mag = abs(float(self._bulk_speed))
        for j, rig in enumerate(self._rigs):
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
            if start not in clocks:
                # The scalar loop adds dt once per step; so must we.
                t = start
                for _ in range(steps):
                    t += dt
                clocks[start] = t
            ctrl["time_s"] = clocks[start]
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
            est["primed"] = self._primed
            est["last_output"] = float(self._last_output[j])
            est["iir"]["y_f"] = float(self._y_iir[j])
            if self._use_direction:
                est["direction"]["direction"] = int(self._dir[j])
                est["direction"]["filter"]["y_f"] = float(self._y_dir[j])
            load_state(mon.estimator, est)

            line = state_of(rig.line)
            line.update(time_s=self._line_time, speed=self._bulk_speed,
                        pressure=self._bulk_pressure,
                        temperature=self._bulk_temp)
            ou = line["noise"]["ou"]
            ou["x"] = float(self._x_ou[j])
            if steps:
                # The turbulence stream's last retune, as perturb() did.
                noise = line["noise"]["config"]
                ou["sigma"] = noise.intensity * v_mag + noise.floor_mps
                ou["tau_s"] = noise.integral_length_m / max(
                    v_mag, noise.min_speed_mps)
            load_state(rig.line, line)

            load_state(rig.reference, {**state_of(rig.reference),
                                       "state": float(self._pm_state[j])})
            rig.offset = self._offset
        self._synced = self._offset

    def _run(self, profile: Profile, steps: int,
             record_every_n: int, sums: WindowSums | None = None
             ) -> RunResult | None:
        """The instrumented main loop behind :meth:`run`.

        Each chunk is advanced in three phases: :func:`plan_chunk`
        precomputes the time axis (setpoints, shared-line plant, drive
        schedule, OU coefficients), the time-blocked kernels run every
        feed-forward trajectory (line OU, AFE flicker, backside OU,
        Promag lag) and per-sample noise array for the whole chunk, and
        only the genuinely recurrent chain (reference/heater/membrane
        thermals, AFE state, filters, PI, estimator) stays in the
        per-sample loop.

        With ``sums`` the window is a calibration window
        (:meth:`accumulate`): it records nothing, skips the estimator,
        and stays out of the run metrics, spans and profiler stages,
        since its campaign's own span accounts for it.
        """
        dt = self._dt
        n = self._n
        fast = self._fast
        accumulating = sums is not None
        # Per-chunk instrumentation: one branch when disabled, one
        # perf_counter pair + histogram/counter update per chunk (never
        # per sample) when enabled.
        registry = get_registry()
        tracer = _QUIET if accumulating else get_tracer()
        observing = registry.enabled and not accumulating
        if observing:
            registry.gauge("runtime.batch.fleet_size").set(n)
            registry.gauge("runtime.kernel.fast").set(1.0 if fast else 0.0)
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
        # Per-stage profiling (kernel.plan / kernel.ar1_block /
        # kernel.film / kernel.chunk_loop): strictly opt-in — one bool
        # check per hook while disabled — because the film hook sits in
        # the per-sample loop and a live profiler costs two clock reads
        # per sample.
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
        t_buf: list[float] = []
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
        # branches (guards, flags) stay native scalars.
        as0 = np.asarray
        lev_a, lev_b, iota = self._lev_a, self._lev_b, self._iota
        dac_lsb, dac_max = as0(self._dac_lsb), as0(self._dac_max_code)
        burst_p, min_rating = self._burst_pressure, self._min_rating
        ref_r0, tcr_ref = as0(self._ref_r0), as0(self._tcr_ref)
        tref_ref = as0(self._tref_ref)
        r_trim, r_series = self._r_trim, as0(self._r_series)
        alpha_ref = as0(self._alpha_ref)
        h_r0, tcr_h = as0(self._h_r0), as0(self._tcr_h)
        tref_h = as0(self._tref_h)
        g_lat, rho_m = as0(self._g_lat), as0(self._rho_m)
        g_rim, lat_total = as0(self._g_rim_total), self._lat_total
        heater_cap = as0(self._heater_cap)
        ndt = as0(-dt)
        leak, leak_mask = self._leak, self._leak_mask
        leak_zero = self._leak_zero
        gain = as0(self._gain)
        residual_offset = as0(self._residual_offset)
        alpha_bw, rail = as0(self._alpha_bw), as0(self._rail)
        neg_rail = as0(-self._rail)
        aa_coeffs, aa_state = self._aa_coeffs, self._aa_state
        adc_lsb = as0(self._adc_lsb)
        adc_min, adc_max = as0(self._adc_min), as0(self._adc_max)
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
            q_min_int, q_max_int = as0(self._q_min_int), as0(self._q_max_int)
            kp_code, ki_dt_code = self._kp_code, self._ki_dt_code
            pi_min_code = as0(self._pi_min_code)
            pi_max_code = as0(self._pi_max_code)
            qmul = self._qmul
        else:
            pi_kp, pi_ki = as0(self._pi_kp), as0(self._pi_ki)
            pi_dt = as0(self._pi_dt)
            pi_out_min = as0(self._pi_out_min)
            pi_out_max = as0(self._pi_out_max)
        rh_star, bp_denom = self._rh_star, self._bp_denom
        overtemp = as0(self._overtemp)
        coeff_a, coeff_b, inv_exp = self._coeff_a, self._coeff_b, self._inv_exp
        alpha_iir = as0(self._alpha_iir)
        use_direction = self._use_direction
        dir_offset, alpha_dir = self._dir_offset, as0(self._alpha_dir)
        # The hysteresis thresholds of the direction comparator, in all
        # four signed forms the loop compares against (same additions
        # and exact negations as the inline expressions).
        dir_thr = as0(self._dir_threshold)
        neg_thr = as0(-self._dir_threshold)
        thr_hi = as0(self._dir_threshold + self._dir_hysteresis)
        neg_thr_hi = as0(-(self._dir_threshold + self._dir_hysteresis))
        pm_noise = self._pm_noise
        # Single anti-alias stage is the common configuration; unpack it
        # once so the hot loop skips the zip machinery.
        single_stage = len(aa_coeffs) == 1
        if single_stage:
            aab0, aab1, aab2, _aa0, aaa1, aaa2 = (
                as0(v) for v in aa_coeffs[0])
            aast = aa_state[0]
        # Hot-loop callables bound to locals (skips the global/attr
        # lookups per dispatch); the numerics mode picks the
        # transcendental kernels once instead of branching per step.
        np_min, np_max, np_where = np.minimum, np.maximum, np.where
        np_add, np_abs, np_sign = np.add, np.abs, np.sign
        np_trunc, np_copysign = np.trunc, np.copysign
        np_floor, np_int64 = np.floor, np.int64
        vexp = np.exp if fast else exp_exact
        vpow = np.power if fast else pow_exact
        film = film_conductance

        # Recurrent state mirrored into locals for the loop and written
        # back after the chunk loop.  The fault paths (guard raises)
        # leave the attribute mirrors stale, which is safe: a raised run
        # spends the engine, so they are never re-read.
        u = self._u
        t_ref, t_h, t_mem = self._t_ref, self._t_h, self._t_mem
        cov = self._cov
        afe_state, y_lpf = self._afe_state, self._y_lpf
        pi_sat = self._pi_sat
        if pi_quant:
            pi_int = self._pi_int
        else:
            pi_int_f = self._pi_int_f
        y_iir, primed = self._y_iir, self._primed
        y_dir, dir_state = self._y_dir, self._dir
        last_output = self._last_output
        if accumulating:
            supply_sum, ref_sum = sums.supply_sum, sums.reference_sum
            n_valid = sums.valid

        # Scratch buffers reused every step: each is fully overwritten
        # before use and never stored across steps.  ``t_f0`` is the
        # 0-d box for the per-step fluid temperature — refilled each
        # tick, read by several ufuncs, never aliased into results.
        ua_buf = np.empty((2, n))
        t_in_buf = np.empty((2, n))
        t_f0 = np.empty(())

        # Operating-point resistances carried across steps: step k's
        # post-step values are bitwise step k+1's pre-step values (same
        # formula, same state), so each is computed once, not twice.
        rt = ref_r0 * (1.0 + tcr_ref * (t_ref - tref_ref))
        rh = h_r0 * (1.0 + tcr_h * (t_h - tref_h))
        rh_eff = rh if leak_zero else np.where(
            leak_mask, rh, 1.0 / (1.0 / rh + leak))
        if not bs_on:
            g_back = self._g_back_half * 1.0
        cov_nonzero = bool((cov > 0.0).any())

        # Steps are absolute indices on the engine clock: the profile
        # setpoints, the drive phase and the decimation condition all
        # see ``start + k``, so an advance window resumes exactly where
        # the previous one stopped.
        start0 = self._offset
        end = start0 + steps
        for start in range(start0, end, self._chunk):
            c = min(self._chunk, end - start)
            if observing:
                chunk_start = time.perf_counter()
            with tracer.span("kernel.plan", samples=c, fast=fast):
                if profiling:
                    prof_w, prof_c = perf_counter(), process_time()
                # Time axis: setpoints, shared plant, drive schedule, OU
                # coefficients — everything loop-invariant per step.
                plan = plan_chunk(
                    profile, self._drive, dt, start, c,
                    speed=float(self._bulk_speed),
                    pressure=float(self._bulk_pressure),
                    temperature=float(self._bulk_temp),
                    time_s=float(self._line_time),
                    a_speed=float(self._a_speed),
                    a_press=float(self._a_press),
                    a_temp=float(self._a_temp),
                    turb_length=self._turb_length,
                    turb_min_speed=self._turb_min_speed,
                    fast=fast)
                if profiling:
                    now_w, now_c = perf_counter(), process_time()
                    note("kernel.plan", now_w - prof_w, now_c - prof_c)
                bulk_v = plan.bulk_speed

                # Pre-draw this chunk's gaussian blocks from the live
                # streams (identical consumption in both numerics modes).
                xi_line = np.stack(
                    [rng.standard_normal(c) for rng in self._line_rngs])
                if bs_on:
                    xi_bs = np.stack(
                        [rng.standard_normal(c) for rng in self._bs_rngs])
                afe_blocks = [
                    np.stack([rng.standard_normal(2 * c) for rng in row])
                    for row in self._afe_rngs]
                xi_flick = np.stack([blk[:, 0::2] for blk in afe_blocks])
                xi_white = np.stack([blk[:, 1::2] for blk in afe_blocks])
                xi_adc = np.stack(
                    [np.stack([rng.standard_normal(c) for rng in row])
                     for row in self._adc_rngs])
                xi_pm = np.stack(
                    [rng.standard_normal(c) for rng in self._pm_rngs])

                # Time-blocked trajectory kernels: every feed-forward
                # stochastic process runs for the whole chunk at once.
                # The profiling stage covers the whole region (AR(1)
                # recurrences, relaxation kernel, and their elementwise
                # input prep) under the name "kernel.ar1_block".
                if profiling:
                    prof_w, prof_c = perf_counter(), process_time()
                sigma_ou = (self._turb_intensity * plan.v_mag[:, None]
                            + self._turb_floor)
                x_ou_traj, self._x_ou = ar1_block(
                    self._x_ou, plan.rho_ou,
                    (sigma_ou * plan.ou_sqrt[:, None]) * xi_line.T)
                v_local_all = bulk_v[:, None] + x_ou_traj
                absv_all = np.abs(v_local_all)
                x_wake = absv_all / self._wake_peak_speed
                coupling_all = self._wake2 * x_wake / (1.0 + x_wake * x_wake)
                fwd_all = v_local_all >= 0.0
                # One reduction per chunk buys a branch-free inlet-
                # temperature path for fully-forward chunks (the common
                # case away from zero crossings).
                fwd_chunk = bool(fwd_all.all())
                v_eff_all = np.maximum(absv_all, NATURAL_CONVECTION_FLOOR)
                if enable_bubbles:
                    detach_all = (self._bub_base_detach
                                  + self._bub_shear_detach * absv_all)
                flick_traj, self._flick = ar1_block(
                    self._flick, self._afe_leak,
                    self._flicker_scale * np.moveaxis(xi_flick, 2, 0))
                noise_gain_all = (self._white_rms * np.moveaxis(xi_white, 2, 0)
                                  + flick_traj) * gain
                if bs_on:
                    bs_traj, self._x_bs = ar1_block(
                        self._x_bs, self._bs_rho, self._bs_scale * xi_bs.T)
                    g_back_all = self._g_back_half * np.maximum(
                        1.0 + bs_traj, 0.1)
                adc_noise_all = self._adc_thermal * np.moveaxis(xi_adc, 2, 0)
                pm_traj, self._pm_state = relax_block(
                    self._pm_state, self._pm_alpha,
                    bulk_v[:, None] * self._pm_gain)
                if not bs_on:
                    # With a constant backside conductance the
                    # ``g_back * t_fluid`` term of the heater ambient is
                    # a per-chunk outer product (same elementwise mul).
                    gbtf_all = np.array(plan.bulk_temp)[:, None] * g_back
                if profiling:
                    now_w, now_c = perf_counter(), process_time()
                    note("kernel.ar1_block", now_w - prof_w, now_c - prof_c)
            if observing:
                plan_end = time.perf_counter()
                plan_hist.observe(plan_end - chunk_start)
                planned_counter.inc(c)

            energise = plan.energise
            control_active = plan.control_active
            sample_valid = plan.sample_valid
            bulk_p = plan.bulk_pressure
            bulk_t = plan.bulk_temp
            line_t = plan.line_time

            if profiling:
                loop_w, loop_c = perf_counter(), process_time()
                film_w = film_c = 0.0
                film_n = 0
            for k in range(c):
                i = start + k
                p_line = bulk_p[k]
                t_fluid = bulk_t[k]
                t_f0[()] = t_fluid

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
                    ua = ua_buf
                    ua[0] = lev_a[iota, codes[0]]
                    ua[1] = lev_b[iota, codes[1]]
                else:
                    ua = ua_off

                # Sensor guards (shared line pressure).
                if p_line > burst_p:
                    raise SensorFault(
                        f"membrane burst at {float(p_line) / 1e5:.2f} bar "
                        f"(rating {burst_p / 1e5:.2f} bar)")
                if p_line < 0.0:
                    raise ConfigurationError("pressure must be non-negative")
                if p_line > min_rating:
                    raise SensorFault(
                        f"housing rated {min_rating / 1e5:.1f} bar "
                        f"failed at {float(p_line) / 1e5:.1f} bar")

                # Reference resistor: lagged tracking + self-heating
                # bias (``rt`` carries the pre-step resistance).  The
                # two bridge branches are computed rows-joint — the
                # elementwise values, and the a-then-b order of the
                # power sum, match the per-row form exactly.  With a
                # zero supply the reference power is exactly +0.0 and
                # the target collapses to the fluid temperature.
                if live:
                    i_r = ua / (r_trim + rt)
                    p_r = i_r * i_r * rt
                    p_ref = p_r[0] + p_r[1]
                    t_ref_target = t_f0 + f_thirty * p_ref
                    t_ref = t_ref + alpha_ref * (t_ref_target - t_ref)
                else:
                    t_ref = t_ref + alpha_ref * (t_f0 - t_ref)
                rt = ref_r0 * (f_one + tcr_ref * (t_ref - tref_ref))

                # Wake coupling → inlet temperatures (old heater temps).
                # ``warm`` is the rows-joint form of the per-row
                # coupling * max(t_h - t_fluid, 0) products (elementwise
                # identical); when the whole chunk flows forward the
                # wheres collapse to a fill and a single add.
                coupling = coupling_all[k]
                dth = t_h - t_f0
                t_in = t_in_buf
                if fwd_chunk:
                    # Only the upstream wake row is consumed; the add
                    # lands straight in the buffer row (same ufunc).
                    t_in[0] = t_fluid
                    np_add(t_f0,
                           coupling * np_max(dth[0], f_zero),
                           out=t_in[1])
                else:
                    warm = coupling * np_max(dth, f_zero)
                    fwd = fwd_all[k]
                    t_in[0] = np_where(fwd, t_fluid, t_fluid + warm[1])
                    t_in[1] = np_where(fwd, t_fluid + warm[0], t_fluid)

                # Clean film conductance at the film temperature.
                film_t = f_half * (t_h + t_f0)
                if profiling:
                    film_t0w, film_t0c = perf_counter(), process_time()
                g = film(v_eff_all[k], film_t,
                         geom_d, geom_L, fast=fast)
                if profiling:
                    film_w += perf_counter() - film_t0w
                    film_c += process_time() - film_t0c
                    film_n += 1

                # Fouling: deposit resistance in series with the film.
                if enable_fouling:
                    g = f_one / (f_one / g + r_foul)

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
                        cov_nonzero or (dth > bub_thresh).any()):
                    superheat = dth
                    powered = superheat > 1.0
                    active = powered & (superheat > self._bub_nucleation)
                    growth = np.where(
                        active,
                        self._bub_growth * (superheat - self._bub_nucleation),
                        0.0)
                    if active.any():
                        p_abs = p_line + 101_325.0
                        t_boil = float(boiling_temperature(
                            max(float(p_abs), 5_000.0)))
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

                # Backside conductance fluctuation (flooded cavity only;
                # the OU trajectory is precomputed per chunk).
                if bs_on:
                    g_back = g_back_all[k]
                    gbtf = g_back * t_fluid
                else:
                    gbtf = gbtf_all[k]

                # Heater powers at the pre-step operating point (``rh``
                # and ``rh_eff`` carry the pre-step resistances).  A
                # zero supply dissipates exactly +0.0, which the finite
                # positive conduction terms absorb bitwise.
                rh_old = rh
                g_total = g + g_lat + g_back
                if live:
                    branch_i = ua / (r_series + rh_eff)
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

                # Membrane rim update (new heater temps).
                t_rim_inf = (g_lat * (t_h[0] + t_h[1])
                             + lat_total * t_fluid) / g_rim
                t_mem = t_rim_inf + (t_mem - t_rim_inf) * rho_m

                # Bridge readout at the post-step operating point.
                rh = h_r0 * (f_one + tcr_h * (t_h - tref_h))
                if leak_zero:
                    rh_eff = rh
                else:
                    rh_eff = np_where(leak_mask, rh,
                                      f_one / (f_one / rh + leak))
                # AFE: gain + offset, precomputed 1/f + white noise,
                # bandwidth, rails.  With a zero supply both bridge
                # mid-points read exactly +0.0, so the offset-and-gain
                # term is the precomputed ``ro_gain``.
                if live:
                    v_meas_mid = ua * rh_eff / (r_series + rh_eff)
                    v_ref_mid = ua * rt / (r_trim + rt)
                    diff = v_meas_mid - v_ref_mid
                    noisy = (diff + residual_offset) * gain \
                        + noise_gain_all[k]
                else:
                    noisy = ro_gain + noise_gain_all[k]
                afe_state = afe_state + alpha_bw * (noisy - afe_state)
                afe_state = np_min(np_max(afe_state, neg_rail), rail)

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

                # Digital one-pole LPF, then input-referred error.
                y_lpf = y_lpf + alpha_lpf * (volts - y_lpf)
                err = -(y_lpf / gain)

                # PI control (gated by the drive scheme).
                if control_active[k]:
                    if pi_quant:
                        err_code = np_min(np_max(
                            np_floor(err * q_scale + f_half),
                            q_min_int), q_max_int).astype(np_int64)
                        err_sign = np_sign(err_code)
                        cond = (pi_sat == i_zero) | (err_sign != pi_sat)
                        inc = qmul(ki_dt_code, err_code)
                        int_new = np_where(
                            cond,
                            np_min(np_max(pi_int + inc, q_min_int),
                                   q_max_int),
                            pi_int)
                        p_term = qmul(kp_code, err_code)
                        raw = int_new + p_term
                        out_code = np_min(np_max(
                            raw, pi_min_code), pi_max_code)
                        pi_sat = np_where(
                            raw > pi_max_code, i_one,
                            np_where(raw < pi_min_code, i_neg, i_zero))
                        abs_p = np_abs(p_term)
                        pi_int = np_min(
                            np_max(int_new, pi_min_code - abs_p),
                            pi_max_code + abs_p)
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

                # Flow estimator (valid samples only; otherwise hold).
                if not accumulating and sample_valid[k]:
                    bp_a = u[0] ** 2 * rh_star / bp_denom
                    bp_b = u[1] ** 2 * rh_star / bp_denom
                    g_cond = f_half * (bp_a + bp_b) / overtemp
                    excess = np_max(g_cond - coeff_a, f_zero)
                    base = excess / coeff_b
                    speed = vpow(base, inv_exp)
                    if not primed:
                        y_iir = speed.copy()
                        primed = True
                    y_iir = y_iir + alpha_iir * (speed - y_iir)
                    if use_direction:
                        pa = u[0] * u[0]
                        pb = u[1] * u[1]
                        total = pa + pb
                        tz = total <= f_zero
                        asym = np_where(
                            tz, f_zero,
                            (pa - pb) / np_where(tz, f_one, total))
                        x_dir = asym - dir_offset
                        y_dir = y_dir + alpha_dir * (x_dir - y_dir)
                        d = y_dir
                        dirs = dir_state
                        dir_state = np_where(
                            (dirs == i_zero) & (d > dir_thr), i_one,
                            np_where(
                                (dirs == i_zero) & (d < neg_thr), i_neg,
                                np_where(
                                    (dirs == i_one)
                                    & (d < neg_thr_hi), i_neg,
                                    np_where(
                                        (dirs == i_neg)
                                        & (d > thr_hi), i_one,
                                        dirs))))
                        sign = np_where(dir_state != i_zero,
                                        dir_state.astype(float), f_one)
                    else:
                        sign = 1.0
                    last_output = sign * y_iir

                if accumulating:
                    # A §4 averaging window: the meter is read every
                    # sample and the supplies on valid ones.
                    ref_sum = ref_sum + (pm_traj[k] + pm_noise * xi_pm[:, k])
                    if sample_valid[k]:
                        supply_sum = supply_sum + u
                        n_valid += 1
                elif i % record_every_n == 0:
                    # The Promag 50 trajectory was precomputed by the
                    # relaxation kernel; the reading (state + resolution
                    # noise) only exists at recorded ticks.
                    t_buf.append(line_t[k])
                    v_true.append(np.full(n, float(bulk_v[k])))
                    v_ref.append(pm_traj[k] + pm_noise * xi_pm[:, k])
                    v_meas.append(last_output.copy())
                    direction.append(dir_state.copy())
                    pressure.append(np.full(n, float(p_line)))
                    temperature.append(np.full(n, float(t_fluid)))
                    coverage.append(np.maximum(cov[0], cov[1]))

            if profiling:
                now_w, now_c = perf_counter(), process_time()
                note("kernel.chunk_loop", now_w - loop_w, now_c - loop_c)
                if film_n:
                    # One accumulate per chunk: the per-sample timings
                    # were summed locally to keep the profiler dict
                    # lookups out of the hot loop.
                    note("kernel.film", film_w, film_c, calls=film_n)

            # Carry the shared-line plant into the next chunk's plan.
            self._bulk_speed = float(bulk_v[c - 1])
            self._bulk_pressure = bulk_p[c - 1]
            self._bulk_temp = bulk_t[c - 1]
            self._line_time = line_t[c - 1]

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
        self._y_iir, self._primed = y_iir, primed
        self._y_dir, self._dir = y_dir, dir_state
        self._last_output = last_output
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

        if t_buf:
            result = RunResult(
                time_s=np.array(t_buf),
                true_speed_mps=np.stack(v_true, axis=1),
                reference_mps=np.stack(v_ref, axis=1),
                measured_mps=np.stack(v_meas, axis=1),
                direction=np.stack(direction, axis=1),
                pressure_pa=np.stack(pressure, axis=1),
                temperature_k=np.stack(temperature, axis=1),
                bubble_coverage=np.stack(coverage, axis=1),
            )
        else:
            # A window shorter than the decimation stride can record
            # zero ticks; the state still advanced, so hand back an
            # empty-but-well-shaped result the caller can concat.
            empty = np.empty((n, 0))
            result = RunResult(
                time_s=np.empty(0),
                true_speed_mps=empty,
                reference_mps=empty.copy(),
                measured_mps=empty.copy(),
                direction=np.empty((n, 0), dtype=np.int64),
                pressure_pa=empty.copy(),
                temperature_k=empty.copy(),
                bubble_coverage=empty.copy(),
            )
        if profiling:
            result.attach_profile(run_stages)
        return result

