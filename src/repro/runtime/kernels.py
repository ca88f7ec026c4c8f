"""Time-vectorized inner-loop kernels for the batch engine.

The chunk loop of :mod:`repro.runtime.batch` advances the whole fleet
one sample at a time; everything in this module exists to lift work out
of that per-sample loop:

- :func:`plan_chunk` precomputes the *time axis* of a chunk — profile
  setpoints, the shared-line first-order plant trajectory, the
  turbulence-OU coefficients and the drive-scheme energise schedule —
  so the per-sample loop reads plain floats instead of calling
  ``Profile.setpoints`` / ``DriveScheme.tick`` and stepping the plant
  per tick.
- :func:`ar1_block` / :func:`relax_block` run the linear recurrences
  that do not feed back into the control loop (turbulence OU, AFE
  flicker, backside-conductance OU, the Promag reference lag, and the
  flow estimator's output and direction IIRs) for a whole chunk at
  once, returning ``(trajectory, final_state)``.
- :func:`hysteresis_block` runs the direction comparator over a block
  of filtered asymmetries with integer array logic.  Together with the
  two relaxations it lets the engine run the whole flow estimator
  (King's-law inversion, 0.1 Hz output IIR, direction) once per chunk,
  after the per-sample loop, over the PI outputs the loop collected.
- :func:`film_conductance` evaluates the film-property correlations
  over the fleet with array arithmetic instead of per-element Python
  calls into :func:`repro.physics.water.film_properties_scalar`.
- :func:`exp_exact` / :func:`pow_exact` are the libm-elementwise
  transcendentals of the bit-exact path; fast mode swaps them for
  ``np.exp`` / ``np.power``.

Two numerics modes, selected by the ``numerics="exact" | "fast"``
string every run surface accepts (:func:`resolve_numerics` checks it):

``exact`` (default)
    Only transformations that are provably bit-identical to the scalar
    reference loop: elementary IEEE-754 float64 operations (``+ - * /
    sqrt min max``) commute between numpy arrays and Python scalars
    when the association order is mirrored, recurrences keep their
    per-step form, and every transcendental whose implementation is
    *not* correctly rounded (``exp``, ``pow``) is evaluated elementwise
    through libm exactly as the scalar code would.  The golden traces
    under ``tests/golden/`` pin this contract byte for byte.

``fast``
    The same structure, but transcendentals go through numpy's
    vectorized ``exp`` / ``power`` (SIMD, last-ulp differences from
    libm) and the per-generator gaussian draws are pooled into block
    draws.  RNG *consumption* is unchanged — every generator produces
    the identical stream — so the two modes diverge only by sub-ulp
    transcendental rounding; ``tests/test_kernels.py`` holds fast-mode
    traces within 1e-9 relative error of exact on every recorded field,
    and ``tests/golden/fast_engine.npz`` pins a reference trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.errors import ConfigurationError
from repro.units import CELSIUS_OFFSET

__all__ = [
    "NUMERICS_MODES",
    "PROFILE_STAGES",
    "resolve_numerics",
    "exp_exact",
    "pow_exact",
    "pow10_exact",
    "film_conductance",
    "ar1_block",
    "relax_block",
    "hysteresis_block",
    "ChunkPlan",
    "plan_chunk",
]

#: The supported numerics modes, in documentation order.
NUMERICS_MODES = ("exact", "fast")

#: Stage names the batch engine times when the opt-in profiler is on
#: (see :mod:`repro.observability.profile`): chunk planning
#: (:func:`plan_chunk` — ``kernel.plan``), the time-blocked trajectory
#: kernels (``kernel.ar1_block``), the per-sample water-film kernel
#: accumulated per chunk (``kernel.film``), the whole recurrent
#: per-sample loop (``kernel.chunk_loop``), and the chunk-tail flow
#: estimator (``kernel.estimator``).
PROFILE_STAGES = ("kernel.plan", "kernel.ar1_block", "kernel.film",
                  "kernel.chunk_loop", "kernel.estimator")


def resolve_numerics(value) -> str:
    """Check a ``numerics=`` knob is one of :data:`NUMERICS_MODES`; return it.

    Raises
    ------
    ConfigurationError
        With ``reason == "numerics"`` for anything else.
    """
    if value not in NUMERICS_MODES:
        raise ConfigurationError(
            f"unknown numerics {value!r}; use "
            + " or ".join(repr(m) for m in NUMERICS_MODES),
            reason="numerics")
    return value


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

#: Joint Horner tables for the Kell density numerator (rows 0-1) and the
#: specific-heat polynomial (rows 2-3), evaluated over ``t_c`` stacked
#: twice.  Each level computes ``c_i + t_c * acc`` — bitwise the nested
#: form of the separate polynomials, because broadcasting a per-row
#: coefficient does not change the elementwise float ops.  The specific
#: heat has one level fewer, so its rows start at ``0.0``: the first
#: level then yields ``c + t_c * 0.0 == c`` exactly (``±0.0`` absorbs
#: into a non-zero constant).
_RHOCP_START = np.array([[-280.54253e-12], [-280.54253e-12], [0.0], [0.0]])
_RHOCP_LEVELS = (
    np.array([[105.56302e-9], [105.56302e-9],
              [3.40034965e-6], [3.40034965e-6]]),
    np.array([[-46.170461e-6], [-46.170461e-6],
              [-8.32342657e-4], [-8.32342657e-4]]),
    np.array([[-7.9870401e-3], [-7.9870401e-3],
              [7.96622960e-2], [7.96622960e-2]]),
    np.array([[16.945176], [16.945176],
              [-3.04860723], [-3.04860723]]),
    np.array([[999.83952], [999.83952],
              [4216.92378], [4216.92378]]),
)

#: Scratch buffers for the stacked ``t_c`` of the joint Horner pass,
#: keyed by fleet shape (the engine calls with one shape for its whole
#: life, so this holds one or two small arrays).
_TC_STACK: dict = {}

#: Scalar constants of the film correlations pre-boxed as 0-d arrays:
#: a 0-d ufunc operand skips the per-dispatch Python-float boxing and
#: carries the identical float64 value, so results stay bitwise.
_F_CELSIUS = np.asarray(CELSIUS_OFFSET)
_F_K0, _F_K1, _F_K2 = np.asarray(-0.5752), np.asarray(6.397e-3), \
    np.asarray(8.151e-6)
_F_VOGEL_NUM, _F_VOGEL_OFF = np.asarray(247.8), np.asarray(140.0)
_F_MU_SCALE = np.asarray(2.414e-5)
_F_ONE, _F_DEN_SLOPE = np.asarray(1.0), np.asarray(16.879850e-3)
_F_NU_FORCED, _F_NU_FREE = np.asarray(0.57), np.asarray(0.42)
_F_PI = np.asarray(math.pi)


def film_conductance(v_eff, film_t: np.ndarray, diameter: float,
                     length: float, fast: bool = False) -> np.ndarray:
    """Clean-film conductance over the fleet (forced + natural mix).

    Vectorized form of the per-element loop over
    :func:`repro.physics.water.film_properties_scalar` plus the
    Nusselt correlation: the polynomial correlations run as array
    arithmetic (bit-identical — only ``+ - * /``), and the two
    non-correctly-rounded transcendentals (``10**x`` in the Vogel
    viscosity, ``Pr**n`` in the Nusselt fit) go through libm
    elementwise in exact mode or ``np.power`` in fast mode.
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
    t_c = t - _F_CELSIUS
    k = _F_K0 + _F_K1 * t - _F_K2 * t * t
    vogel = _F_VOGEL_NUM / (t - _F_VOGEL_OFF)
    if fast:
        mu = _F_MU_SCALE * np.power(10.0, vogel)
    else:
        mu = _F_MU_SCALE * pow10_exact(vogel)
    if t_c.ndim == 2 and t_c.shape[0] == 2:
        # Density numerator and specific heat share one joint Horner
        # pass over t_c stacked twice (see _RHOCP_LEVELS): identical
        # elementwise ops, seven fewer ufunc dispatches per call.
        stacked = _TC_STACK.get(t_c.shape)
        if stacked is None:
            stacked = np.empty((4, t_c.shape[1]))
            _TC_STACK[t_c.shape] = stacked
        stacked[:2] = t_c
        stacked[2:] = t_c
        acc = _RHOCP_START
        for coeff in _RHOCP_LEVELS:
            acc = coeff + stacked * acc
        rho = acc[0:2] / (_F_ONE + _F_DEN_SLOPE * t_c)
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
    if fast:
        pr20, pr33 = np.power(pr, 0.20), np.power(pr, 0.33)
    else:
        # One tolist round-trip feeds both exponents; ``pow`` under
        # ``map`` is the scalar path's ``**`` without loop overhead.
        pr_flat = pr.ravel().tolist()
        size, shape = pr.size, pr.shape
        pr20 = np.fromiter(map(pow, pr_flat, repeat(0.20)),
                           np.float64, count=size).reshape(shape)
        pr33 = np.fromiter(map(pow, pr_flat, repeat(0.33)),
                           np.float64, count=size).reshape(shape)
    nusselt = _F_NU_FREE * pr20 + _F_NU_FORCED * pr33 * np.sqrt(re)
    return nusselt * k * _F_PI * length


# -- time-blocked recurrence kernels -----------------------------------------


def ar1_block(state: np.ndarray, rho, noise: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Run ``x <- x * rho + noise[k]`` over a chunk; trajectory out.

    ``rho`` is a scalar (AFE flicker leak, backside OU) or a ``(c,)``
    array of per-step coefficients (the speed-dependent turbulence OU).
    The recurrence keeps its per-step multiply-add association, so the
    trajectory is bit-identical to stepping inside the sample loop.

    Returns ``(trajectory, final_state)`` with ``trajectory[k]`` the
    post-update state at step ``k``.
    """
    out = np.empty_like(noise)
    x = state
    if np.ndim(rho) == 0:
        for k, w in enumerate(noise):
            x = x * rho + w
            out[k] = x
    else:
        for k, (r, w) in enumerate(zip(rho.tolist(), noise)):
            x = x * r + w
            out[k] = x
    return out, x


def relax_block(state: np.ndarray, alpha, target: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Run ``x <- x + alpha * (target[k] - x)`` over a chunk.

    The first-order relaxation used by the Promag reference lag.
    Returns ``(trajectory, final_state)``.
    """
    out = np.empty_like(target)
    x = state
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
    """Precomputed time axis of one chunk (everything loop-invariant).

    All per-step scalars are Python floats / bools in plain lists (the
    inner loop indexes them far more often than numpy scalars would
    pay for); the per-step *array* inputs derived from them are built
    by the engine with one vectorized call each.

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
    energise / control_active / sample_valid:
        The drive scheme's decisions, one tick per step.
    """

    bulk_speed: np.ndarray
    bulk_pressure: list = field(repr=False)
    bulk_temp: list = field(repr=False)
    line_time: list = field(repr=False)
    v_mag: np.ndarray = field(repr=False)
    rho_ou: np.ndarray = field(repr=False)
    ou_sqrt: np.ndarray = field(repr=False)
    energise: list = field(repr=False)
    control_active: list = field(repr=False)
    sample_valid: list = field(repr=False)


def plan_chunk(profile, drive, dt: float, start_step: int, c: int, *,
               speed: float, pressure: float, temperature: float,
               time_s: float, a_speed: float, a_press: float, a_temp: float,
               turb_length: float, turb_min_speed: float,
               fast: bool = False) -> ChunkPlan:
    """Precompute one chunk's setpoints, plant trajectory and schedule.

    Advances the shared-line plant (``x <- x + a * (set - x)``, the
    exact scalar recurrence of the per-sample loop), accumulates line
    time, evaluates the turbulence-OU coefficients, and ticks ``drive``
    once per step — all outside the per-sample loop.  The caller seeds
    the plant state (``speed`` / ``pressure`` / ``temperature`` /
    ``time_s``) and carries the returned trajectory tails forward to
    the next chunk.
    """
    bulk_v = np.empty(c)
    v_mag = np.empty(c)
    bulk_p: list[float] = []
    bulk_t: list[float] = []
    times: list[float] = []
    rho_arg = np.empty(c)
    setpoints = profile.setpoints
    for k in range(c):
        v_set, p_set, t_set = setpoints((start_step + k) * dt)
        speed = speed + a_speed * (v_set - speed)
        pressure = pressure + a_press * (p_set - pressure)
        temperature = temperature + a_temp * (t_set - temperature)
        time_s = time_s + dt
        mag = abs(speed)
        bulk_v[k] = speed
        v_mag[k] = mag
        bulk_p.append(pressure)
        bulk_t.append(temperature)
        times.append(time_s)
        rho_arg[k] = -dt / (turb_length / max(mag, turb_min_speed))
    # The drive has no coupling to the profile, so ticking it as one
    # block after the plant loop is order-equivalent; built-in schemes
    # override tick_block with allocation-free loops.
    tick_block = getattr(drive, "tick_block", None)
    if tick_block is not None:
        energise, control, valid = tick_block(dt, c)
    else:
        energise, control, valid = [], [], []
        tick = drive.tick
        for _ in range(c):
            dec = tick(dt)
            energise.append(dec.energise)
            control.append(dec.control_active)
            valid.append(dec.sample_valid)
    if fast:
        rho_ou = np.exp(rho_arg)
    else:
        rho_ou = np.fromiter(map(math.exp, rho_arg.tolist()),
                             np.float64, count=c)
    ou_sqrt = np.sqrt(1.0 - rho_ou * rho_ou)
    return ChunkPlan(
        bulk_speed=bulk_v, bulk_pressure=bulk_p, bulk_temp=bulk_t,
        line_time=times, v_mag=v_mag, rho_ou=rho_ou, ou_sqrt=ou_sqrt,
        energise=energise, control_active=control, sample_valid=valid)
