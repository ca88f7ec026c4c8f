"""Time-vectorized inner-loop kernels for the batch engine.

The chunk loop of :mod:`repro.runtime.batch` advances the whole fleet
one sample at a time; everything in this module exists to lift work out
of that per-sample loop:

- :func:`plan_chunk` precomputes the *time axis* of one lane's chunk —
  profile setpoints, the shared-line first-order plant trajectory and
  the turbulence-OU coefficients — and :func:`drive_schedule` the
  drive-scheme energise schedule every lane shares, so the per-sample
  loop reads precomputed tables instead of calling
  ``Profile.setpoints`` / ``DriveScheme.tick`` and stepping the plant
  per tick.
- :func:`ar1_block` / :func:`relax_block` run the linear recurrences
  that do not feed back into the control loop for a whole chunk at
  once, returning ``(trajectory, final_state)``: the turbulence OU,
  AFE flicker and backside-conductance OU as one stacked AR(1), and
  the Promag reference lag and the flow estimator's output and
  direction IIRs as relaxations.
- :func:`hysteresis_block` runs the direction comparator over a block
  of filtered asymmetries with integer array logic.  Together with the
  two relaxations it lets the engine run the whole flow estimator
  (King's-law inversion, 0.1 Hz output IIR, direction) once per chunk,
  after the per-sample loop, over the PI outputs the loop collected.
- :func:`film_conductance` evaluates the film-property correlations
  over the fleet with array arithmetic instead of per-element Python
  calls into :func:`repro.physics.water.film_properties_scalar`.
- :func:`exp_exact` / :func:`pow_exact` are the libm-elementwise
  transcendentals that keep the engine bit-identical to the scalar path.

Every kernel makes only transformations that are provably bit-identical
to the scalar reference loop: elementary IEEE-754 float64 operations
(``+ - * / sqrt min max``) commute between numpy arrays and Python
scalars when the association order is mirrored, recurrences keep their
per-step form, and every transcendental whose implementation is *not*
correctly rounded (``exp``, ``pow``) is evaluated elementwise through
libm exactly as the scalar code would.  The golden traces under
``tests/golden/`` pin this contract byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.errors import ConfigurationError
from repro.units import CELSIUS_OFFSET

__all__ = [
    "LOOP_REGIONS",
    "PROFILE_STAGES",
    "exp_exact",
    "pow_exact",
    "pow10_exact",
    "film_conductance",
    "q_pi_step",
    "ar1_block",
    "relax_block",
    "hysteresis_block",
    "ChunkPlan",
    "plan_chunk",
    "drive_schedule",
]

#: The regions of the batch engine's per-sample chain, in signal-chain
#: order: supply DACs, line-pressure guards, reference resistor, wake
#: coupling, water film, fouling, bubbles, backside conductance, heater
#: and membrane thermals, bridge, AFE, anti-alias filter, ADC, digital
#: LPF and PI.  ``calls`` counts samples.  The guards check each lane's
#: planned pressures once per chunk, before the loop; every other
#: region is timed per sample and summed per chunk, and together they
#: cover ``kernel.chunk_loop`` but for the loop's own bookkeeping (the
#: estimator hand-off and recorded ticks).
LOOP_REGIONS = ("kernel.dac", "kernel.guards", "kernel.reference",
                "kernel.wake", "kernel.film", "kernel.fouling",
                "kernel.bubbles", "kernel.backside", "kernel.heater",
                "kernel.membrane", "kernel.bridge", "kernel.afe",
                "kernel.anti_alias", "kernel.adc", "kernel.lpf",
                "kernel.pi")

#: Stage names the batch engine times when the opt-in profiler is on
#: (see :mod:`repro.observability.profile`): chunk planning
#: (:func:`plan_chunk` — ``kernel.plan``), the time-blocked trajectory
#: kernels (``kernel.ar1_block``), the :data:`LOOP_REGIONS` of the
#: per-sample loop, the whole recurrent per-sample loop
#: (``kernel.chunk_loop``), and the chunk-tail flow estimator
#: (``kernel.estimator``).
PROFILE_STAGES = ("kernel.plan", "kernel.ar1_block", *LOOP_REGIONS,
                  "kernel.chunk_loop", "kernel.estimator")


# -- elementwise transcendentals ---------------------------------------------


def exp_exact(arg: np.ndarray) -> np.ndarray:
    """Elementwise ``math.exp`` (libm), bit-identical to the scalar path.

    ``fromiter(map(...))`` is the fastest pure-Python build for small
    arrays: no intermediate list, no per-item type probing.
    """
    return np.fromiter(map(math.exp, arg.ravel().tolist()),
                       np.float64, count=arg.size).reshape(arg.shape)


def pow_exact(base: np.ndarray, exponent) -> np.ndarray:
    """Elementwise Python-float ``**``, bit-identical to the scalar path.

    ``exponent`` may be a scalar or an array broadcastable to ``base``.
    ``pow(b, e)`` and ``b ** e`` are the same C implementation, so the
    ``map`` forms below carry the scalar path's bits.
    """
    flat = base.ravel().tolist()
    if np.ndim(exponent) == 0:
        it = map(pow, flat, repeat(float(exponent)))
    else:
        it = map(pow, flat,
                 np.broadcast_to(exponent, base.shape).ravel().tolist())
    return np.fromiter(it, np.float64, count=base.size).reshape(base.shape)


def pow10_exact(arg: np.ndarray) -> np.ndarray:
    """Elementwise ``10.0 ** x`` through C-double pow (libm).

    ``math.pow`` and ``float.__pow__`` call the same C ``pow`` for
    float operands, so this carries the scalar path's bits; the
    ``math.pow`` form benches fastest under ``map``.
    """
    return np.fromiter(map(math.pow, repeat(10.0), arg.ravel().tolist()),
                       np.float64, count=arg.size).reshape(arg.shape)


# -- fused per-step physics kernels ------------------------------------------

#: Joint Horner tables for the Kell density numerator (rows 0-1), the
#: specific-heat polynomial (rows 2-3) and the Kell denominator
#: ``1 + 16.879850e-3 * t_c`` (rows 4-5), evaluated over ``t_c``
#: stacked three times.  Each level computes ``c_i + t_c * acc`` —
#: bitwise the nested form of the separate polynomials, because a
#: per-row coefficient does not change the elementwise float ops (and
#: ``t_c * c`` is ``c * t_c``).  The shorter polynomials start at
#: ``0.0``: a level then yields ``c + t_c * 0.0 == c`` exactly (``±0.0``
#: absorbs into ``c``, and into ``+0.0`` for ``c == 0.0``).  The first
#: entry is the start value.
_HORNER_LEVELS = (
    (-280.54253e-12, 0.0, 0.0),
    (105.56302e-9, 3.40034965e-6, 0.0),
    (-46.170461e-6, -8.32342657e-4, 0.0),
    (-7.9870401e-3, 7.96622960e-2, 0.0),
    (16.945176, -3.04860723, 16.879850e-3),
    (999.83952, 4216.92378, 1.0),
)

#: Per fleet shape (the engine calls with one shape for its whole life,
#: so this holds one or two entries), everything the joint ``(2, N)``
#: film pass reuses, as full-shape arrays (a ufunc over equal shapes
#: costs well under one that broadcasts a column or a row):
#:
#: - a ``(4, 2, N)`` scratch buffer and the offsets one subtraction
#:   takes from the film temperature to fill it: ``t_c`` three times
#:   (the Horner rows) and the Vogel ``t - 140``;
#: - the :data:`_HORNER_LEVELS` as ``(6, N)`` rows;
#: - the Nusselt coefficients of the free and forced terms as
#:   ``(2, 2, N)`` rows, and the two Prandtl exponents, listed for one
#:   elementwise ``pow`` pass.
_FILM_SCRATCH: dict = {}


def _film_scratch(shape: tuple) -> tuple:
    """The :data:`_FILM_SCRATCH` entry for a ``(2, N)`` film shape."""
    entry = _FILM_SCRATCH.get(shape)
    if entry is None:
        def rows(*values):
            return np.repeat(np.array(values), 2 * shape[1]).reshape(
                (len(values), *shape))
        offsets = rows(CELSIUS_OFFSET, CELSIUS_OFFSET, CELSIUS_OFFSET, 140.0)
        levels = tuple(rows(*level).reshape(6, shape[1])
                       for level in _HORNER_LEVELS)
        size = 2 * shape[1]
        entry = _FILM_SCRATCH[shape] = (
            np.empty_like(offsets), offsets, levels, rows(0.42, 0.57),
            [0.20] * size + [0.33] * size)
    return entry


#: Scalar constants of the film correlations pre-boxed as 0-d arrays:
#: a 0-d ufunc operand skips the per-dispatch Python-float boxing and
#: carries the identical float64 value, so results stay bitwise.
_F_CELSIUS = np.asarray(CELSIUS_OFFSET)
_F_K0, _F_K1, _F_K2 = np.asarray(-0.5752), np.asarray(6.397e-3), \
    np.asarray(8.151e-6)
_F_VOGEL_NUM, _F_VOGEL_OFF = np.asarray(247.8), np.asarray(140.0)
_F_MU_SCALE = np.asarray(2.414e-5)
_F_NU_FORCED, _F_NU_FREE = np.asarray(0.57), np.asarray(0.42)
_F_PI = np.asarray(math.pi)


def film_conductance(v_eff, film_t: np.ndarray, diameter: float,
                     length: float) -> np.ndarray:
    """Clean-film conductance over the fleet (forced + natural mix).

    Vectorized form of the per-element loop over
    :func:`repro.physics.water.film_properties_scalar` plus the
    Nusselt correlation: the polynomial correlations run as array
    arithmetic (bit-identical — only ``+ - * /``), and the two
    non-correctly-rounded transcendentals (``10**x`` in the Vogel
    viscosity, ``Pr**n`` in the Nusselt fit) go through libm
    elementwise.
    """
    t = film_t
    # Range guard on the cheap path: one tolist round-trip + Python
    # min/max instead of two ufunc reductions.  The failure path
    # recomputes the mask so the raise condition (and message) match
    # the scalar reference exactly, including the all-NaN case where
    # no ordered comparison fires either way.
    t_flat = t.ravel().tolist()
    if not (min(t_flat) > 250.0 and max(t_flat) < 450.0):
        bad_mask = (t <= 250.0) | (t >= 450.0)
        if np.any(bad_mask):
            bad = float(t[bad_mask].ravel()[0])
            raise ConfigurationError(
                f"film temperature {bad} K outside liquid range — "
                f"Celsius passed as K?")
    joint = t.ndim == 2 and t.shape[0] == 2
    if joint:
        # One subtraction fills the Horner rows' t_c and the Vogel
        # denominator's t - 140 (see _FILM_SCRATCH).
        shifted, offsets, levels, nu_coeffs, pr_exponents = \
            _film_scratch(t.shape)
        np.subtract(t, offsets, out=shifted)
        t_c = shifted[0]
        vogel = _F_VOGEL_NUM / shifted[3]
    else:
        t_c = t - _F_CELSIUS
        vogel = _F_VOGEL_NUM / (t - _F_VOGEL_OFF)
    k = _F_K0 + _F_K1 * t - _F_K2 * t * t
    mu = _F_MU_SCALE * pow10_exact(vogel)
    if joint:
        # The Kell numerator and denominator and the specific heat share
        # one joint Horner pass (see _HORNER_LEVELS): identical
        # elementwise ops, ten fewer ufunc dispatches per call.
        stacked = shifted[:3].reshape(6, -1)
        acc = levels[0]
        for coeff in levels[1:]:
            acc = coeff + stacked * acc
        rho = acc[0:2] / acc[4:6]
        cp = acc[2:4]
    else:
        rho = (
            999.83952
            + t_c * (16.945176
                     + t_c * (-7.9870401e-3
                              + t_c * (-46.170461e-6
                                       + t_c * (105.56302e-9
                                                - 280.54253e-12 * t_c))))
        ) / (1.0 + 16.879850e-3 * t_c)
        cp = (
            4216.92378
            + t_c * (-3.04860723
                     + t_c * (7.96622960e-2
                              + t_c * (-8.32342657e-4
                                       + 3.40034965e-6 * t_c)))
        )
    nu = mu / rho
    pr = cp * mu / k
    re = v_eff * diameter / nu
    if joint:
        # One ``map`` over the flat Prandtl numbers listed twice feeds
        # both exponents (``math.pow`` is the C ``pow`` behind the
        # scalar path's ``**``, as in :func:`pow10_exact`), and one
        # multiply scales both Nusselt terms.
        pr_flat = pr.ravel().tolist()
        free, forced = nu_coeffs * np.fromiter(
            map(math.pow, pr_flat + pr_flat, pr_exponents), np.float64,
            count=2 * pr.size).reshape(nu_coeffs.shape)
    else:
        free = _F_NU_FREE * pow_exact(pr, 0.20)
        forced = _F_NU_FORCED * pow_exact(pr, 0.33)
    nusselt = free + forced * np.sqrt(re)
    return nusselt * k * _F_PI * length


def q_pi_step(qformat, ki_dt_code: int, kp_code: int, min_code: int,
              max_code: int, n: int):
    """The fixed-point PI step over ``(2, n)`` rows of controllers.

    Returns ``step(err_code, int_code, sat) -> (out_code, int_code,
    sat)``, all ``(2, n)`` int64 arrays: the vector form of
    :meth:`PIController.step_codes
    <repro.isif.pi_controller.PIController.step_codes>`, integer for
    integer.  Both Q-format products (``ki*dt`` and ``kp`` times the
    error code) run as one stacked multiply, round-half-up shift and
    saturate; a row integrates unless it is saturated with the error
    pushing the same way (``sign(e) * sat == 1``), and its new
    saturation is the sign of how far the raw output lies past the
    rails.  Raises ``ValueError`` for a format with no fraction bits,
    as the engine always has.
    """
    as0 = np.asarray
    gains = np.empty((2, 2, n), dtype=np.int64)
    gains[0] = ki_dt_code
    gains[1] = kp_code
    half, shift = as0(1 << (qformat.frac_bits - 1)), as0(qformat.frac_bits)
    q_min, q_max = as0(qformat.min_int), as0(qformat.max_int)
    lo, hi, one = as0(min_code), as0(max_code), as0(1)
    minimum, maximum, where = np.minimum, np.maximum, np.where
    sign, absolute = np.sign, np.abs

    def step(err_code, int_code, sat):
        integrate = sign(err_code) * sat != one
        inc, p_term = minimum(maximum((gains * err_code + half) >> shift,
                                      q_min), q_max)
        int_new = where(integrate,
                        minimum(maximum(int_code + inc, q_min), q_max),
                        int_code)
        raw = int_new + p_term
        out_code = minimum(maximum(raw, lo), hi)
        # Integrator clamp (back-calculation analogue).
        abs_p = absolute(p_term)
        return (out_code,
                minimum(maximum(int_new, lo - abs_p), hi + abs_p),
                sign(raw - out_code))

    return step


# -- time-blocked recurrence kernels -----------------------------------------


def ar1_block(state: np.ndarray, rho: np.ndarray, noise: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Run ``x <- x * rho[k] + noise[k]`` over a chunk; trajectory out.

    ``state`` is ``(R,)``, ``rho`` and ``noise`` are ``(c, R)`` tables:
    one coefficient per step and row, so several AR(1) processes (the
    speed-dependent turbulence OU, the AFE flicker leak, the backside
    OU) stacked side by side run as one recurrence.  Each element keeps
    its per-step multiply-add, so every trajectory is bit-identical to
    stepping it alone inside the sample loop.

    Returns ``(trajectory, final_state)`` with ``trajectory[k]`` the
    post-update state at step ``k``.
    """
    out = np.empty_like(noise)
    multiply, add = np.multiply, np.add
    x = state
    for row, r, w in zip(out, rho, noise):
        multiply(x, r, out=row)
        add(row, w, out=row)
        x = row
    return out, x.copy()


def relax_block(state: np.ndarray, alpha, target: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Run ``x <- x + alpha * (target[k] - x)`` over a chunk.

    The first-order relaxation behind the Promag reference lag and the
    flow estimator's 0.1 Hz output and direction IIRs.  ``alpha`` is a
    scalar or an array shaped like ``state`` (one relaxation per row of
    a stacked state).  Returns ``(trajectory, final_state)``.
    """
    out = np.empty_like(target)
    x = state
    alpha = np.asarray(alpha)
    for k, tgt in enumerate(target):
        x = x + alpha * (tgt - x)
        out[k] = x
    return out, x


def hysteresis_block(state: np.ndarray, level: np.ndarray, threshold,
                     threshold_hi) -> tuple[np.ndarray, np.ndarray]:
    """Run the direction comparator over a ``(steps, rows)`` block.

    Per step (:class:`repro.conditioning.direction.DirectionDetector`),
    an idle row (state 0) goes to 1 on ``level > threshold`` and to -1
    on ``level < -threshold``; a row at 1 flips to -1 on ``level <
    -threshold_hi``, a row at -1 to 1 on ``level > threshold_hi``.
    With ``0 < threshold <= threshold_hi`` the two crossings of one
    step exclude each other, so a row's state is the sign of its last
    ``±threshold_hi`` crossing, counted from the step after an idle
    row's first trigger (which sets the state itself), and its
    carried-in state before any.  NaN levels cross nothing.  ``level``
    holds at least one step.  Returns ``(trajectory, final_state)``.
    """
    dtype = state.dtype
    steps = np.arange(len(level))[:, None]
    event = ((level > threshold_hi).astype(dtype)
             - (level < -threshold_hi).astype(dtype))
    idle = state == 0
    if idle.any():
        trigger = ((level > threshold).astype(dtype)
                   - (level < -threshold).astype(dtype))
        fired = trigger != 0
        first = np.where(idle & fired.any(axis=0), fired.argmax(axis=0),
                         np.where(idle, len(level), -1))
        event = np.where(steps > first, event,
                         np.where(steps == first, trigger, 0))
    last = np.maximum.accumulate(np.where(event != 0, steps, -1), axis=0)
    traj = np.where(last >= 0,
                    np.take_along_axis(event, np.maximum(last, 0), axis=0),
                    state)
    return traj, traj[-1].copy()


# -- the chunk plan ----------------------------------------------------------


@dataclass
class ChunkPlan:
    """Precomputed line time axis of one lane's chunk.

    Every field is a ``(c,)`` array, one entry per step; the engine
    scatters the lanes' plans into per-row tables the per-sample loop
    reads.

    Attributes
    ----------
    bulk_speed / bulk_pressure / bulk_temp:
        Shared-line plant state after each step's first-order update.
    line_time:
        Accumulated line time after each step.
    v_mag:
        ``abs(bulk_speed)`` per step (feeds the OU coefficient).
    rho_ou / ou_sqrt:
        Turbulence-OU decay ``exp(-dt/tau)`` and the matching
        ``sqrt(1 - rho^2)`` noise gain, per step.
    """

    bulk_speed: np.ndarray
    bulk_pressure: np.ndarray = field(repr=False)
    bulk_temp: np.ndarray = field(repr=False)
    line_time: np.ndarray = field(repr=False)
    v_mag: np.ndarray = field(repr=False)
    rho_ou: np.ndarray = field(repr=False)
    ou_sqrt: np.ndarray = field(repr=False)


def plan_chunk(profile, dt: float, start_step: int, c: int, *,
               speed: float, pressure: float, temperature: float,
               time_s: float, a_speed: float, a_press: float, a_temp: float,
               turb_length: float, turb_min_speed: float) -> ChunkPlan:
    """Precompute one lane's setpoints and plant trajectory for a chunk.

    Advances the shared-line plant (``x <- x + a * (set - x)``, the
    exact scalar recurrence of the per-sample loop) from the profile
    step ``start_step`` (the lane's own clock), accumulates line time
    and evaluates the turbulence-OU coefficients — all outside the
    per-sample loop.  The caller seeds the plant state (``speed`` /
    ``pressure`` / ``temperature`` / ``time_s``) and carries the
    returned trajectory tails forward to the next chunk.
    """
    bulk_v = np.empty(c)
    bulk_p = np.empty(c)
    bulk_t = np.empty(c)
    times = np.empty(c)
    rho_arg = np.empty(c)
    setpoints = profile.setpoints
    for k in range(c):
        v_set, p_set, t_set = setpoints((start_step + k) * dt)
        speed = speed + a_speed * (v_set - speed)
        pressure = pressure + a_press * (p_set - pressure)
        temperature = temperature + a_temp * (t_set - temperature)
        time_s = time_s + dt
        bulk_v[k] = speed
        bulk_p[k] = pressure
        bulk_t[k] = temperature
        times[k] = time_s
        rho_arg[k] = -dt / (turb_length / max(abs(speed), turb_min_speed))
    rho_ou = np.fromiter(map(math.exp, rho_arg.tolist()),
                         np.float64, count=c)
    ou_sqrt = np.sqrt(1.0 - rho_ou * rho_ou)
    return ChunkPlan(
        bulk_speed=bulk_v, bulk_pressure=bulk_p, bulk_temp=bulk_t,
        line_time=times, v_mag=np.abs(bulk_v), rho_ou=rho_ou,
        ou_sqrt=ou_sqrt)


def drive_schedule(drive, dt: float, c: int) -> tuple[list, list, list]:
    """Tick ``drive`` ``c`` times: ``(energise, control_active,
    sample_valid)`` lists, one decision per step.

    The drive has no coupling to the profile or the plant, so one
    block of ticks per chunk serves every lane; built-in schemes
    override ``tick_block`` with allocation-free loops.
    """
    tick_block = getattr(drive, "tick_block", None)
    if tick_block is not None:
        return tick_block(dt, c)
    energise, control, valid = [], [], []
    tick = drive.tick
    for _ in range(c):
        dec = tick(dt)
        energise.append(dec.energise)
        control.append(dec.control_active)
        valid.append(dec.sample_valid)
    return energise, control, valid
