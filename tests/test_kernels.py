"""Direct contract tests for the kernel layer (repro.runtime.kernels).

The golden traces pin the engine end to end; these tests pin the
kernels *on their own*:

- the transcendentals (``exp_exact``, ``pow_exact``, ``pow10_exact``)
  are bitwise
  ``math.exp`` / ``**`` over a magnitude sweep that includes
  denormal-adjacent and large-negative arguments;
- ``film_conductance`` is bitwise the per-element scalar composition
  over :func:`repro.physics.water.film_properties_scalar`, for both
  the flat and the ``(2, N)`` joint-Horner shapes;
- the numerics knob is gone (9.0): no engine, run surface or kernel
  takes one, and the kernels module has no mode check left.
"""

import importlib
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import BatchEngine, FleetSpec, MixedEngine, Session
from repro.runtime.kernels import (exp_exact, film_conductance, pow10_exact,
                                   pow_exact)
from repro.runtime.parallel import ShardedEngine
from repro.physics.water import film_properties_scalar
from repro.station.profiles import staircase

#: Magnitude sweep for the exponential: large-negative (flushes to
#: zero), denormal-adjacent (results in the subnormal range), the
#: normal/denormal boundary, tiny, zero, and up to just below the
#: double overflow threshold (~709.78).
EXP_SWEEP = [
    -800.0, -746.0, -745.133, -744.4400719213812, -709.0, -708.3964185322641,
    -700.0, -500.0, -100.0, -30.0, -1.0, -1e-3, -1e-17, -1e-300,
    0.0, 1e-300, 1e-17, 1e-3, 1.0, 30.0, 100.0, 700.0, 709.0,
]


def test_exp_exact_bit_parity_over_magnitude_sweep():
    arg = np.array(EXP_SWEEP)
    expected = np.array([math.exp(x) for x in EXP_SWEEP])
    got = exp_exact(arg)
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


def test_exp_exact_preserves_shape_2d():
    arg = np.array(EXP_SWEEP[:6] + EXP_SWEEP[-6:]).reshape(2, 6)
    got = exp_exact(arg)
    assert got.shape == (2, 6)
    flat = np.array([math.exp(x) for x in arg.ravel().tolist()])
    assert got.ravel().tobytes() == flat.tobytes()


def test_pow_exact_bit_parity():
    base = np.array([1e-30, 1e-17, 0.5, 1.0, 2.0, 10.0, 1e17, 1e100])
    for exponent in (0.20, 0.33, 0.5, 2.0, -1.5):
        expected = np.array([b ** exponent for b in base.tolist()])
        assert pow_exact(base, exponent).tobytes() == expected.tobytes()
    # Array exponent broadcast.
    exps = np.array([0.2, 0.33, 0.5, 1.0, 2.0, 3.0, 0.0, -1.0])
    expected = np.array([b ** e for b, e in zip(base.tolist(), exps.tolist())])
    assert pow_exact(base, exps).tobytes() == expected.tobytes()


def test_pow10_exact_bit_parity():
    arg = np.array([-300.0, -17.5, -1.0, 0.0, 0.30103, 2.5, 17.0, 300.0])
    expected = np.array([10.0 ** x for x in arg.tolist()])
    assert pow10_exact(arg).tobytes() == expected.tobytes()


# -- film conductance ---------------------------------------------------------

_DIAMETER = 12e-6
_LENGTH = 1.2e-3


def _scalar_film(v_eff: float, film_t: float) -> float:
    """The per-element scalar composition the kernel replaces."""
    k, nu_visc, pr = film_properties_scalar(film_t)
    re = v_eff * _DIAMETER / nu_visc
    nusselt = 0.42 * pr ** 0.20 + 0.57 * pr ** 0.33 * math.sqrt(re)
    return nusselt * k * math.pi * _LENGTH


def _film_cases():
    rng = np.random.default_rng(9)
    v = rng.uniform(1e-3, 3.0, size=14)
    t = rng.uniform(275.0, 372.0, size=14)
    return v, t


def test_film_conductance_bit_parity_flat():
    v, t = _film_cases()
    got = film_conductance(v, t, _DIAMETER, _LENGTH)
    expected = np.array([_scalar_film(float(a), float(b))
                         for a, b in zip(v.tolist(), t.tolist())])
    assert got.tobytes() == expected.tobytes()


def test_film_conductance_bit_parity_joint_horner():
    # The (2, N) shape takes the joint density/heat-capacity Horner
    # pass; it must carry the very same bits as the flat path.
    v, t = _film_cases()
    v2, t2 = v.reshape(2, 7), t.reshape(2, 7)
    got = film_conductance(v2, t2, _DIAMETER, _LENGTH)
    expected = np.array([_scalar_film(float(a), float(b))
                         for a, b in zip(v.tolist(), t.tolist())]).reshape(2, 7)
    assert got.tobytes() == expected.tobytes()


def test_film_conductance_accepts_boxed_geometry():
    # The engine passes 0-d arrays for the geometry; same bits as floats.
    v, t = _film_cases()
    boxed = film_conductance(v, t, np.asarray(_DIAMETER),
                             np.asarray(_LENGTH))
    plain = film_conductance(v, t, _DIAMETER, _LENGTH)
    assert boxed.tobytes() == plain.tobytes()


def test_film_conductance_range_guard():
    v = np.full(3, 0.5)
    bad = np.array([300.0, 300.0, 120.0])  # Celsius passed as K
    with pytest.raises(ConfigurationError):
        film_conductance(v, bad, _DIAMETER, _LENGTH)


# -- the removed numerics knob -----------------------------------------------


@pytest.mark.parametrize("bad", ["turbo", "", "EXACT", None, 3])
def test_resolve_numerics_rejects_with_reason(bad):
    """There is no numerics mode left to resolve: the check and its mode
    table are gone, and any ``numerics=`` value fails at argument
    binding, before a rig is looked at."""
    kernels = importlib.import_module("repro.runtime.kernels")
    for name in ("resolve_numerics", "NUMERICS_MODES"):
        assert not hasattr(kernels, name), name
        assert name not in kernels.__all__
    with pytest.raises(TypeError):
        BatchEngine([], numerics=bad)


def test_engines_reject_unknown_numerics(shared_setup):
    # Arguments bind before any body runs, so the shared read-mostly rig
    # is never touched; the former default is refused like any value.
    for value in ("exact", "fast", "bogus"):
        with pytest.raises(TypeError):
            BatchEngine([shared_setup.rig], numerics=value)
        with pytest.raises(TypeError):
            ShardedEngine([shared_setup.rig], workers=1, numerics=value)
        with pytest.raises(TypeError):
            MixedEngine([shared_setup.rig], numerics=value)
    v, t = _film_cases()
    with pytest.raises(TypeError):
        film_conductance(v, t, _DIAMETER, _LENGTH, fast=True)


def test_session_run_validates_numerics():
    profile = staircase([0.0, 50.0], dwell_s=0.5)
    with Session(fleet=FleetSpec.homogeneous(
            1, seed=42, fast_calibration=True)) as session:
        session.calibrate()
        for value in ("exact", "fast", "bogus"):
            with pytest.raises(TypeError):
                session.run(profile, numerics=value)
        with pytest.raises(TypeError):
            session.run(profile, engine="scalar")
        # The refused calls left the session usable.
        assert session.run(profile).n_monitors == 1
