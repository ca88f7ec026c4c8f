"""Direct contract tests for the kernel layer (repro.runtime.kernels).

The golden traces pin the engine end to end; these tests pin the
kernels *on their own*:

- the exact-mode transcendentals (``exp_exact`` and its back-compat
  alias ``batch._vexp``, ``pow_exact``, ``pow10_exact``) are bitwise
  ``math.exp`` / ``**`` over a magnitude sweep that includes
  denormal-adjacent and large-negative arguments;
- ``film_conductance`` is bitwise the per-element scalar composition
  over :func:`repro.physics.water.film_properties_scalar`, for both
  the flat and the ``(2, N)`` joint-Horner shapes;
- the unified ``numerics=`` knob validates with a machine-readable
  ``reason`` on every surface and round-trips through ``to_dict`` /
  ``from_dict`` and pickling;
- fast mode stays within 1e-9 relative error of exact on every
  recorded field of a real engine run.
"""

import math
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import BatchEngine, FleetSpec, RunResult, Session
from repro.runtime.batch import _vexp, run_batch
from repro.runtime.kernels import (NUMERICS_MODES, Numerics, exp_exact,
                                   film_conductance, pow10_exact, pow_exact,
                                   resolve_numerics)
from repro.runtime.parallel import ShardedEngine
from repro.physics.water import film_properties_scalar
from repro.station.profiles import staircase
from repro.station.scenarios import build_calibrated_monitor

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


def test_vexp_is_the_exact_kernel():
    # The engine's historical name must keep pointing at the exact path.
    assert _vexp is exp_exact


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


def test_film_conductance_fast_mode_close():
    v, t = _film_cases()
    exact = film_conductance(v, t, _DIAMETER, _LENGTH)
    fast = film_conductance(v, t, _DIAMETER, _LENGTH, fast=True)
    np.testing.assert_allclose(fast, exact, rtol=1e-12)


def test_film_conductance_range_guard():
    v = np.full(3, 0.5)
    bad = np.array([300.0, 300.0, 120.0])  # Celsius passed as K
    with pytest.raises(ConfigurationError):
        film_conductance(v, bad, _DIAMETER, _LENGTH)


# -- the numerics knob --------------------------------------------------------


def test_resolve_numerics_accepts_modes_and_policy():
    assert NUMERICS_MODES == ("exact", "fast")
    assert resolve_numerics("exact") == "exact"
    assert resolve_numerics("fast") == "fast"
    assert resolve_numerics(Numerics(mode="fast")) == "fast"
    assert Numerics().mode == "exact"
    assert not Numerics().fast
    assert Numerics(mode="fast").fast


@pytest.mark.parametrize("bad", ["turbo", "", "EXACT", None, 3])
def test_resolve_numerics_rejects_with_reason(bad):
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_numerics(bad)
    assert excinfo.value.reason == "numerics"


def test_numerics_policy_validates_and_serializes():
    with pytest.raises(ConfigurationError) as excinfo:
        Numerics(mode="bogus")
    assert excinfo.value.reason == "numerics"
    policy = Numerics(mode="fast")
    assert policy.to_dict() == {"mode": "fast"}
    assert Numerics.from_dict(policy.to_dict()) == policy
    with pytest.raises(ConfigurationError) as excinfo:
        Numerics.from_dict({})
    assert excinfo.value.reason == "numerics"
    copy = pickle.loads(pickle.dumps(policy))
    assert copy == policy and copy.fast


def test_engines_reject_unknown_numerics(shared_setup):
    # resolve_numerics runs before any rig is touched, so the shared
    # read-mostly rig is safe to pass.
    with pytest.raises(ConfigurationError) as excinfo:
        BatchEngine([shared_setup.rig], numerics="bogus")
    assert excinfo.value.reason == "numerics"
    with pytest.raises(ConfigurationError) as excinfo:
        ShardedEngine([shared_setup.rig], workers=1, numerics="bogus")
    assert excinfo.value.reason == "numerics"
    with pytest.raises(ConfigurationError) as excinfo:
        run_batch([shared_setup.rig], staircase([0.0, 50.0], dwell_s=0.5),
                  numerics="bogus")
    assert excinfo.value.reason == "numerics"


def test_session_run_validates_numerics():
    with Session(fleet=FleetSpec.homogeneous(
            1, seed=42, fast_calibration=True)) as session:
        session.calibrate()
        with pytest.raises(ConfigurationError) as excinfo:
            session.run(staircase([0.0, 50.0], dwell_s=0.5),
                        numerics="bogus")
        assert excinfo.value.reason == "numerics"
        # The scalar reference path *is* the exact contract; fast on it
        # is refused rather than silently ignored.
        with pytest.raises(ConfigurationError) as excinfo:
            session.run(staircase([0.0, 50.0], dwell_s=0.5),
                        engine="scalar", numerics="fast")
        assert excinfo.value.reason == "numerics"


# -- fast-mode engine parity --------------------------------------------------


def _mode_result(numerics: str) -> RunResult:
    rigs = [build_calibrated_monitor(seed=s, fast=True).rig for s in (55, 56)]
    return BatchEngine(rigs, numerics=numerics).run(
        staircase([0.0, 70.0, 160.0], dwell_s=0.6), record_every_n=20)


def test_fast_mode_within_1e9_of_exact():
    exact = _mode_result("exact")
    fast = _mode_result("fast")
    for name in ("time_s",) + RunResult.STACKED_FIELDS:
        a = np.asarray(getattr(exact, name))
        b = np.asarray(getattr(fast, name))
        assert a.shape == b.shape, name
        if np.issubdtype(a.dtype, np.floating):
            np.testing.assert_allclose(
                b, a, rtol=1e-9, atol=1e-12,
                err_msg=f"{name}: fast mode outside the 1e-9 contract")
        else:
            assert np.array_equal(a, b), f"{name}: integer trace differs"
