import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from hrsync.energy import energy_terms
from hrsync.model import (
    ADAPTABLE_PARAMS,
    NeuronParams,
    NeuronState,
    conservative,
    field,
)

from oracles import SENSITIVITY, as_floats, dissipative_exact, field_exact, fd_param_sensitivity

CANON = NeuronParams.canonical(I=3.024)
P = astuple(CANON)
ORIGIN = (0.0, 0.0, 0.0, 0.0)


def random_states(n, lo=-2.0, hi=2.0, seed=1234):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(lo, hi, 4).tolist()) for _ in range(n)]


def sensitivity(state, which):
    """``d f / d which`` at ``state`` as a 4-vector, from its one nonzero entry."""
    row, value = SENSITIVITY[which]
    out = [0.0, 0.0, 0.0, 0.0]
    out[row] = value(*state, P)
    return tuple(out)


class TestTypes:
    def test_canonical_values(self):
        assert (CANON.a, CANON.b, CANON.c, CANON.d) == (1.0, 3.0, 1.0, 0.99)
        assert (CANON.xi, CANON.I, CANON.e, CANON.f) == (1.0, 3.024, 1.01, 5.0128)
        assert (CANON.g, CANON.m, CANON.s, CANON.h) == (0.0278, 0.00215, 3.966, 1.605)
        assert (CANON.n, CANON.k, CANON.r, CANON.l) == (0.0009, 0.9573, 3.0, 1.619)
        assert CANON.p == -1.0

    def test_canonical_current_is_a_knob(self):
        assert NeuronParams.canonical(I=0.85).I == 0.85

    def test_params_reject_nonfinite(self):
        with pytest.raises(ValueError):
            replace(CANON, b=float("nan"))
        with pytest.raises(ValueError):
            replace(CANON, I=float("inf"))

    def test_params_division_guards(self):
        with pytest.raises(ValueError):
            replace(CANON, a=0.0)
        with pytest.raises(ValueError):
            replace(CANON, m=0.0)
        with pytest.raises(ValueError):
            replace(CANON, s=0.0)

    def test_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            NeuronState(float("nan"), 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            NeuronState(0.0, 0.0, float("-inf"), 0.0)

    def test_adaptable_set_excludes_p(self):
        assert "p" not in ADAPTABLE_PARAMS
        assert len(ADAPTABLE_PARAMS) == 16


class TestVectorField:
    def test_at_origin(self):
        # dz = m*s*h and dw = n*r*l, both exact decimal products
        dx, dy, dz, dw = field(*ORIGIN, P)
        assert dx == pytest.approx(3.024, abs=0)
        assert dy == pytest.approx(1.01, abs=0)
        assert dz == pytest.approx(0.0136856745, rel=1e-15)
        assert dw == pytest.approx(0.0043713, rel=1e-15)

    def test_null_field(self):
        # minimal parameter set with a valid m*s but h=0 so every term vanishes
        null = NeuronParams(a=1, b=0, c=0, d=0, xi=0, I=0, e=0, f=0, g=0,
                            m=1, s=1, h=0, n=0, k=0, r=0, l=0, p=-1)
        assert field(*ORIGIN, astuple(null)) == (0.0, 0.0, 0.0, 0.0)

    def test_matches_exact_arithmetic_at_ones(self):
        got = field(1, 1, 1, 1, P)
        want = as_floats(field_exact((1, 1, 1, 1), CANON))
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_matches_exact_arithmetic_random(self):
        for state in random_states(25):
            got = as_floats(field(*state, P))
            want = as_floats(field_exact(state, CANON))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestFieldSplit:
    def test_dissipative_at_origin_equals_full_field(self):
        # the conservative part is homogeneous in the state, so it vanishes here
        assert energy_terms(*ORIGIN, P)[3] == field(*ORIGIN, P)

    def test_dissipative_second_component(self):
        _, dy, _, _ = energy_terms(0, 1, 0, 0, P)[3]
        assert dy == pytest.approx(0.01, rel=1e-12)

    def test_dissipative_matches_exact(self):
        for state in random_states(25, seed=77):
            got = as_floats(energy_terms(*state, P)[3])
            want = as_floats(dissipative_exact(state, CANON))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_conservative_at_origin(self):
        assert conservative(*ORIGIN, P) == (0.0, 0.0, 0.0, 0.0)

    def test_conservative_closed_form_at_unit_x(self):
        d = conservative(1, 0, 0, 0, P)
        assert d == pytest.approx((0.0, -5.0128, 0.0085269, 0.0), rel=1e-15)

    def test_split_reassembles_field(self):
        # f = f_c + f_d up to float associativity, everywhere
        for state in random_states(100, lo=-5, hi=5, seed=9):
            f = as_floats(field(*state, P))
            fc = as_floats(conservative(*state, P))
            fd = as_floats(energy_terms(*state, P)[3])
            np.testing.assert_allclose(f, fc + fd, rtol=1e-13, atol=1e-13)

    def test_difference_matches_conservative_closed_form(self):
        p = CANON
        for state in random_states(50, seed=31):
            x, y, z, w = state
            diff = as_floats(field(*state, P)) - as_floats(energy_terms(*state, P)[3])
            want = (p.a * y - p.d * z, -p.f * x * x - p.g * w, p.m * p.s * x, p.n * p.r * y)
            np.testing.assert_allclose(diff, want, rtol=1e-10, atol=1e-12)


class TestParamSensitivity:
    def test_current_sensitivity_is_xi(self):
        for state in random_states(5, seed=3):
            assert sensitivity(state, "I") == (1.0, 0.0, 0.0, 0.0)

    def test_b_sensitivity_is_x_squared(self):
        assert sensitivity((2, 0.5, -1, 3), "b") == (4.0, 0.0, 0.0, 0.0)

    def test_s_sensitivity_closed_form(self):
        state = (0.7, -0.2, 1.1, 0.4)
        assert sensitivity(state, "s") == pytest.approx(
            (0.0, 0.0, CANON.m * (0.7 + CANON.h), 0.0), rel=1e-15
        )

    def test_all_sensitivities_match_finite_differences(self):
        # central difference, parameter step 1e-6, on 100 random states
        states = random_states(100, seed=2024)
        for which in ADAPTABLE_PARAMS:
            for state in states:
                got = as_floats(sensitivity(state, which))
                want = fd_param_sensitivity(state, CANON, which)
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


def test_canonical_attractor_stays_bounded():
    # trajectory from the origin never approaches the divergence guard
    from hrsync.sim import SimSpec, run_isolated

    spec = SimSpec(dt=0.01, t_end=2000.0, record_every=200, initial_pre=NeuronState(*ORIGIN))
    peak = float(np.abs(run_isolated(spec, CANON).pre).max())
    assert peak < 100.0
    assert math.isfinite(peak)
