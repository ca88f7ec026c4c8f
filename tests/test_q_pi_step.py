"""The batch engine's fixed-point PI step against the scalar controller.

:func:`repro.runtime.kernels.q_pi_step` is the vector form of
:meth:`PIController.step_codes` the engine's per-sample loop runs: one
stacked multiply for both gains' Q-format products, and integer sign
rewrites for the saturation state and the integrate condition.  Over
drawn gains, error codes (0 and both rails included), carried
integrators and all three saturation states, every row of a few
consecutive steps must equal the scalar controller integer for integer.

Hypothesis is an optional dev dependency: the module skips without it.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.isif.fixed_point import QFormat  # noqa: E402
from repro.isif.pi_controller import PIConfig, PIController  # noqa: E402
from repro.runtime.kernels import q_pi_step  # noqa: E402
from repro.state import load_state, state_of  # noqa: E402

#: The CTA controller's datapath format.
_Q = QFormat(3, 20)


@st.composite
def _case(draw):
    """Gains, a (2, n) fleet's carried state and a few steps of errors."""
    kp = draw(st.floats(min_value=0.0, max_value=6.0))
    ki = draw(st.floats(min_value=0.0, max_value=2000.0))
    if kp == 0.0 and ki == 0.0:
        kp = 1.0
    config = PIConfig(kp=kp, ki=ki, dt_s=1e-3, out_min=0.0, out_max=5.0,
                      qformat=_Q)
    n = draw(st.integers(min_value=1, max_value=4))
    codes = st.one_of(st.sampled_from([0, 1, -1, _Q.min_int, _Q.max_int]),
                      st.integers(min_value=_Q.min_int, max_value=_Q.max_int))
    # The carried integrator ranges past the output rails by up to one
    # saturated proportional term (the back-calculation clamp).
    ints = st.integers(min_value=-_Q.max_int, max_value=2 * _Q.max_int)
    grid = lambda values: st.lists(  # noqa: E731
        st.lists(values, min_size=n, max_size=n), min_size=2, max_size=2)
    steps = draw(st.integers(min_value=1, max_value=4))
    return (config, draw(grid(ints)), draw(grid(st.sampled_from([-1, 0, 1]))),
            [draw(grid(codes)) for _ in range(steps)])


@settings(max_examples=300, deadline=None)
@given(_case())
def test_fused_step_matches_scalar_controller(case):
    config, int_codes, sats, errors = case
    n = len(int_codes[0])
    scalar = [[PIController(config) for _ in range(n)] for _ in range(2)]
    for h in range(2):
        for j in range(n):
            ctrl = scalar[h][j]
            load_state(ctrl, {**state_of(ctrl),
                              "int_code": int_codes[h][j],
                              "saturated_sign": sats[h][j]})
    pi0 = state_of(scalar[0][0])
    step = q_pi_step(_Q, pi0["ki_dt_code"], pi0["kp_code"], pi0["min_code"],
                     pi0["max_code"], n)
    int_code = np.array(int_codes, dtype=np.int64)
    sat = np.array(sats, dtype=np.int64)
    for err in errors:
        out, int_code, sat = step(np.array(err, dtype=np.int64), int_code,
                                  sat)
        for h in range(2):
            for j in range(n):
                ctrl = scalar[h][j]
                want = ctrl.step_codes(err[h][j])
                state = state_of(ctrl)
                assert int(out[h, j]) == want
                assert int(int_code[h, j]) == state["int_code"]
                assert int(sat[h, j]) == state["saturated_sign"]
        assert out.dtype == int_code.dtype == sat.dtype == np.int64
