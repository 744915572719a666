from dataclasses import astuple

import numpy as np
import pytest

from hrsync.energy import energy_terms
from hrsync.model import NeuronParams, conservative, field
from hrsync.sim import SimSpec, run_isolated

from oracles import (
    as_floats,
    energy_derivative_exact,
    energy_exact,
    energy_gradient_exact,
    fd_gradient,
)

CANON = NeuronParams.canonical(I=3.024)
P = astuple(CANON)
ORIGIN = (0.0, 0.0, 0.0, 0.0)


def random_states(n, seed):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(-2, 2, 4).tolist()) for _ in range(n)]


class TestEnergy:
    def test_zero_at_origin(self):
        assert energy_terms(*ORIGIN, P)[0] == 0.0

    def test_pure_y_state(self):
        # only the a*y^2 term survives: H = p*y^2 = -1
        assert energy_terms(0, 1, 0, 0, P)[0] == pytest.approx(-1.0, rel=1e-15)

    def test_matches_exact_arithmetic_at_ones(self):
        want = float(energy_exact((1, 1, 1, 1), CANON))
        assert energy_terms(1, 1, 1, 1, P)[0] == pytest.approx(want, rel=1e-13)

    def test_matches_exact_arithmetic_random(self):
        for state in random_states(50, seed=11):
            want = float(energy_exact(state, CANON))
            assert energy_terms(*state, P)[0] == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestGradient:
    def test_zero_at_origin(self):
        np.testing.assert_array_equal(energy_terms(*ORIGIN, P)[2], np.zeros(4))

    def test_pure_y_state(self):
        got = energy_terms(0, 1, 0, 0, P)[2]
        np.testing.assert_allclose(got, (0.0, -2.0, 1.98, 0.0), rtol=1e-15)

    def test_matches_exact_arithmetic(self):
        for state in random_states(50, seed=12):
            want = as_floats(energy_gradient_exact(state, CANON))
            np.testing.assert_allclose(energy_terms(*state, P)[2], want,
                                       rtol=1e-12, atol=1e-15)

    def test_matches_finite_differences(self):
        # step 1e-6, 100 random states, relative error 1e-6
        for state in random_states(100, seed=13):
            grad = np.array(energy_terms(*state, P)[2])
            fd = fd_gradient(lambda *s: energy_terms(*s, P)[0], state)
            assert np.linalg.norm(fd - grad) <= 1e-6 * (1.0 + np.linalg.norm(grad))


class TestEnergyDerivative:
    def test_zero_at_origin(self):
        assert energy_terms(*ORIGIN, P)[1] == 0.0

    def test_is_gradient_dot_dissipative(self):
        # bit-exact: Hdot is computed as this inner product, never expanded
        for state in random_states(50, seed=14):
            _, hdot, g, d = energy_terms(*state, P)
            want = g[0] * d[0] + g[1] * d[1] + g[2] * d[2] + g[3] * d[3]
            assert hdot == want

    def test_matches_exact_arithmetic(self):
        for state in random_states(50, seed=15):
            want = float(energy_derivative_exact(state, CANON))
            assert energy_terms(*state, P)[1] == pytest.approx(want, rel=1e-11, abs=1e-14)

    def test_orthogonality_identity(self):
        # grad . f equals grad . f_d because grad . f_c vanishes identically
        for state in random_states(100, seed=16):
            _, hdot, grad, _ = energy_terms(*state, P)
            grad = np.array(grad)
            full = as_floats(field(*state, P))
            cons = as_floats(conservative(*state, P))
            scale = 1.0 + np.linalg.norm(grad) * np.linalg.norm(cons)
            assert abs(grad @ cons) <= 1e-10 * scale
            assert abs((grad @ full - grad @ cons) - hdot) <= 1e-9 * (1.0 + abs(hdot))


class TestAlongTrajectories:
    def test_chain_rule(self):
        # (H(t+dt) - H(t-dt)) / 2dt tracks Hdot on spiking segments
        spec = SimSpec(dt=1e-3, t_end=20.0, record_every=1)
        run = run_isolated(spec, CANON)
        H = run.H_pre
        Hdot = run.Hdot_pre
        numeric = (H[2:] - H[:-2]) / (2e-3)
        spiking = np.abs(Hdot[1:-1]) > 1.0
        assert spiking.sum() > 1000
        rel = np.abs(numeric[spiking] - Hdot[1:-1][spiking]) / np.abs(Hdot[1:-1][spiking])
        assert rel.max() < 1e-3

    def test_free_neuron_average_is_balanced_and_guided_is_not(self):
        # sign convention check: free neuron exchanges zero net energy on
        # average, a guided one does not
        from hrsync.sim import AdaptationSpec, PairConfig, run_pair

        spec = SimSpec(dt=0.01, t_end=200.0, record_every=5)
        free = run_isolated(
            SimSpec(dt=0.01, t_end=1500.0, record_every=10, transient=500.0), CANON
        )
        free_avg = np.mean(free.Hdot_pre)
        pair = run_pair(
            spec,
            PairConfig(
                pre=CANON,
                post=NeuronParams.canonical(I=0.85),
                K=5.0,
                adaptation=AdaptationSpec(start_time=100.0),
            ),
        )
        guided = pair.Hdot_post[(pair.t >= 50.0) & (pair.t <= 100.0)]
        assert abs(free_avg) < 0.5
        assert abs(np.mean(guided)) > 2.0

    def test_receiver_ledger_closes_with_the_coupling_power(self):
        # the coupling moves the receiver's energy at the rate Pc = gx2*K*(x1 - x2),
        # the x component of its gradient times the coupling term; with Hdot2
        # it accounts for the whole change of H2 over the forced regime, up to
        # the trapezoid rule's error at h = dt (acceptance criterion 5's run)
        from hrsync.sim import PairConfig, run_pair

        config = PairConfig(pre=CANON, post=NeuronParams.canonical(I=0.85), K=5.0)
        spec = SimSpec(dt=0.01, t_end=1500.0, record_every=1, transient=500.0)
        run = run_pair(spec, config)
        P_post = astuple(config.post)
        gx2 = np.array([energy_terms(*post, P_post)[2][0] for post in run.post.tolist()])
        pc = gx2 * config.K * (run.pre[:, 0] - run.post[:, 0])

        def integral(rate):
            return float(np.sum(rate[:-1] + rate[1:]) * spec.dt / 2)

        change = float(run.H_post[-1] - run.H_post[0])
        assert abs(integral(run.Hdot_post + pc) - change) < 1e-2
        assert abs(integral(run.Hdot_post) - change) > 1000

    def test_spike_phases(self):
        # depolarization demands dissipation (Hdot < 0), repolarization a
        # positive energy contribution, with the conventional negative p
        spec = SimSpec(dt=0.01, t_end=700.0, record_every=1, transient=600.0)
        run = run_isolated(spec, CANON)
        x = run.pre[:, 0]
        hdot = run.Hdot_pre
        dx = np.gradient(x, spec.dt)
        rising = (dx > 2.0)
        falling = (dx < -2.0)
        assert rising.sum() > 100 and falling.sum() > 100
        assert (hdot[rising] < 0).mean() > 0.95
        assert (hdot[falling] > 0).mean() > 0.80
