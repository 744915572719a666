import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, replace

import numpy as np
import pytest

from hrsync import analysis, codegen, fork, sim
from hrsync.analysis import sweep_K
from hrsync.energy import energy_terms
from hrsync.model import ADAPTABLE_PARAMS, PARAM_INDEX, NeuronParams, NeuronState, field
from hrsync.sim import (
    AdaptationSpec,
    DivergenceError,
    PairConfig,
    SimSpec,
    Sink,
    Trajectory,
    _kernels,
    run_isolated,
    run_pair,
)

from oracles import (
    Fold,
    as_floats,
    coupled_derivative,
    fd_param_sensitivity,
    field_exact,
    folded_source,
    rk4_step,
)

CANON = NeuronParams.canonical(I=3.024)
QUIET = NeuronParams.canonical(I=0.85)

REFERENCE_SPEC = SimSpec(dt=0.01, t_end=200.0)
REFERENCE_CONFIG = PairConfig(
    pre=CANON, post=QUIET, K=5.0, adaptation=AdaptationSpec(start_time=100.0)
)

# frozen outputs of the reference run (dt=0.01, fixed initial conditions);
# these pin regressions, they are not externally derived truths
REFERENCE_E1_RMS_50_100 = 0.3139114042098491
REFERENCE_I2_AT_200 = 2.668662238531051


def index_at(run, t):
    return int(np.flatnonzero(np.abs(run.t - t) < 1e-9)[0])


class TestSpecs:
    def test_simspec_validation(self):
        with pytest.raises(ValueError):
            SimSpec(dt=0.0)
        with pytest.raises(ValueError):
            SimSpec(dt=0.01, t_end=100.0, transient=150.0)
        with pytest.raises(ValueError):
            SimSpec(dt=0.01, record_every=0)
        with pytest.raises(ValueError):
            SimSpec(dt=0.3, t_end=1.0)  # not an integer number of steps

    def test_pairconfig_validation(self):
        with pytest.raises(ValueError):
            PairConfig(pre=CANON, post=QUIET, K=-1.0)

    def test_adaptation_validation(self):
        with pytest.raises(ValueError):
            AdaptationSpec(target="p")
        with pytest.raises(ValueError):
            AdaptationSpec(gain=0.0)
        with pytest.raises(ValueError):
            AdaptationSpec(start_time=-1.0)


class TestRk4Step:
    def test_exponential_decay(self):
        # one step of dx/dt = -x from 1 with dt=0.1
        (out,) = rk4_step(lambda s, t: [-x for x in s], (1.0,), 0.0, 0.1)
        assert out == pytest.approx(0.9048375, abs=1e-12)
        assert abs(out - math.exp(-0.1)) < 1e-7

    def test_null_field(self):
        state = (1.0, -2.0, 3.0, 4.0)
        out = rk4_step(lambda s, t: [0.0 * x for x in s], state, 0.0, 0.5)
        np.testing.assert_array_equal(out, state)

    def test_nonfinite_raises_with_time(self):
        with pytest.raises(DivergenceError) as err:
            rk4_step(lambda s, t: [x * 1e200 for x in s], (1.0,), 3.0, 1.0)
        assert err.value.t == 3.0

    def test_time_dependent_rhs(self):
        # dx/dt = t integrates exactly under RK4 (polynomial of low order)
        (out,) = rk4_step(lambda s, t: (t,), (0.0,), 0.0, 1.0)
        assert out == pytest.approx(0.5, rel=1e-15)

    def test_fourth_order_self_convergence(self):
        # halving dt must shrink the final-state difference about 16x
        finals = {}
        for dt in (0.02, 0.01, 0.005):
            spec = SimSpec(dt=dt, t_end=1.0, record_every=round(1.0 / dt),
                           initial_pre=NeuronState(0.1, 0.2, 0.3, 0.1))
            finals[dt] = run_isolated(spec, CANON).pre[-1]
        factor = np.linalg.norm(finals[0.02] - finals[0.01]) / np.linalg.norm(
            finals[0.01] - finals[0.005]
        )
        assert 12.0 < factor < 20.0

    def test_error_vs_fine_reference_shrinks_16x(self):
        finals = {}
        for dt in (0.02, 0.01, 1e-4):
            spec = SimSpec(dt=dt, t_end=1.0, record_every=round(1.0 / dt),
                           initial_pre=NeuronState(0.1, 0.2, 0.3, 0.1))
            finals[dt] = run_isolated(spec, CANON).pre[-1]
        ratio = np.linalg.norm(finals[0.02] - finals[1e-4]) / np.linalg.norm(
            finals[0.01] - finals[1e-4]
        )
        assert 12.0 < ratio < 20.0


class TestCoupledDerivative:
    def joint(self, pre, post, q):
        return np.array([*pre, *post, q])

    def test_decoupled_limit_is_two_free_copies(self):
        config = PairConfig(pre=CANON, post=QUIET, K=0.0)
        pre = (0.3, -1.0, 2.0, 0.5)
        post = (-0.2, 0.8, 1.0, -0.3)
        got = coupled_derivative(self.joint(pre, post, QUIET.I), config, 0.0)
        want_pre = field(*pre, astuple(CANON))
        want_post = field(*post, astuple(QUIET))
        np.testing.assert_array_equal(got[:4], want_pre)
        np.testing.assert_array_equal(got[4:8], want_post)
        assert got[8] == 0.0

    def test_identical_states_kill_the_coupling_term(self):
        config = PairConfig(pre=CANON, post=CANON, K=7.5)
        state = (0.4, -0.6, 1.2, 0.1)
        got = coupled_derivative(self.joint(state, state, CANON.I), config, 0.0)
        want = field(*state, astuple(CANON))
        np.testing.assert_allclose(got[4:8], want, rtol=0, atol=0)

    def test_current_adaptation_specialization(self):
        # e1 = 0.5 with unit gain and xi gives dI2/dt = -0.5 once active
        config = PairConfig(
            pre=CANON, post=QUIET, K=5.0,
            adaptation=AdaptationSpec(gain=1.0, start_time=10.0),
        )
        pre = (0.0, 0.0, 0.0, 0.0)
        post = (0.5, 0.0, 0.0, 0.0)
        before = coupled_derivative(self.joint(pre, post, QUIET.I), config, 9.99)
        after = coupled_derivative(self.joint(pre, post, QUIET.I), config, 10.0)
        assert before[8] == 0.0
        assert after[8] == -0.5

    def test_coupling_touches_only_first_post_component(self):
        base = PairConfig(pre=CANON, post=QUIET, K=0.0)
        coupled = PairConfig(pre=CANON, post=QUIET, K=3.0)
        joint = self.joint((0.3, -1.0, 2.0, 0.5), (-0.2, 0.8, 1.0, -0.3), QUIET.I)
        d0 = coupled_derivative(joint, base, 0.0)
        d3 = coupled_derivative(joint, coupled, 0.0)
        assert d3[4] - d0[4] == pytest.approx(3.0 * (0.3 - (-0.2)), rel=1e-15)
        np.testing.assert_array_equal(d3[:4], d0[:4])
        np.testing.assert_array_equal(d3[5:], d0[5:])

    @pytest.mark.parametrize("target", ADAPTABLE_PARAMS)
    def test_general_target_matches_sensitivity_rule(self, target):
        # the live value q sits away from the receiver's own, so every
        # component must come from the substituted parameter set; the error
        # differs in every component, so only the right row gives dq
        gain, K = 2.0, 2.0
        config = PairConfig(
            pre=CANON, post=QUIET, K=K,
            adaptation=AdaptationSpec(target=target, gain=gain, start_time=0.0),
        )
        pre = NeuronState(0.4, -0.3, 1.0, 0.2)
        post = NeuronState(0.1, 0.5, 0.8, -0.25)
        q = 1.1 * getattr(QUIET, target)
        got = coupled_derivative(self.joint(pre.as_tuple(), post.as_tuple(), q), config, 1.0)

        want_pre = as_floats(field_exact(pre, CANON))
        want_post = as_floats(field_exact(post, replace(QUIET, **{target: q})))
        want_post[0] += K * (pre.x - post.x)
        np.testing.assert_allclose(got[:4], want_pre, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got[4:8], want_post, rtol=1e-12, atol=1e-15)

        sens = fd_param_sensitivity(pre.as_tuple(), CANON, target)
        err = np.subtract(post.as_tuple(), pre.as_tuple())
        assert got[8] == pytest.approx(-gain * float(sens @ err), rel=1e-6, abs=1e-9)


class TestRunPair:
    def test_identical_neurons_stay_identical(self):
        # K=0, same parameters, same start: the error is exactly zero forever
        state = NeuronState(0.1, 0.2, 0.3, 0.1)
        spec = SimSpec(dt=0.01, t_end=50.0, initial_pre=state, initial_post=state)
        config = PairConfig(pre=CANON, post=CANON, K=0.0,
                            adaptation=AdaptationSpec(start_time=10.0))
        run = run_pair(spec, config)
        assert np.all(run.e == 0.0)
        assert np.all(run.q == CANON.I)

    def test_recording_policy(self):
        spec = SimSpec(dt=0.01, t_end=2.0, record_every=10, transient=1.0)
        times = run_pair(spec, REFERENCE_CONFIG).t.tolist()
        assert times[0] == pytest.approx(1.0)
        assert times[-1] == pytest.approx(2.0)
        assert len(times) == 11
        steps = np.diff(times)
        np.testing.assert_allclose(steps, 0.1, rtol=1e-9)

    def test_sample_error_field_is_post_minus_pre(self):
        run = run_pair(SimSpec(dt=0.01, t_end=1.0), REFERENCE_CONFIG)
        for i in range(0, len(run), 10):
            want = tuple(b - a for a, b in zip(run.pre[i].tolist(), run.post[i].tolist()))
            assert tuple(run.e[i].tolist()) == want

    def test_determinism(self):
        a = run_pair(SimSpec(dt=0.01, t_end=5.0), REFERENCE_CONFIG)
        b = run_pair(SimSpec(dt=0.01, t_end=5.0), REFERENCE_CONFIG)
        assert a == b

    def test_adaptation_recovers_most_of_the_current_gap(self):
        run = run_pair(REFERENCE_SPEC, REFERENCE_CONFIG)
        assert run.q[index_at(run, 100.0)] == QUIET.I
        final = run.q[index_at(run, 200.0)]
        assert final == pytest.approx(REFERENCE_I2_AT_200, rel=1e-9)
        # most of the 0.85 -> 3.024 gap is gone; the slow-current mismatch
        # makes the remainder decay only on the z/w time scales
        assert abs(final - CANON.I) < 0.2 * abs(QUIET.I - CANON.I)

    def test_parameter_gap_decays_monotonically_after_adaptation(self):
        run = run_pair(REFERENCE_SPEC, REFERENCE_CONFIG)
        gaps = [abs(run.q[index_at(run, float(t))] - CANON.I)
                for t in range(110, 201, 10)]
        initial_gap = abs(QUIET.I - CANON.I)
        assert all(b <= a + 0.05 * initial_gap for a, b in zip(gaps, gaps[1:]))

    def test_forced_sync_residual_error_regression(self):
        run = run_pair(REFERENCE_SPEC,
                       PairConfig(pre=CANON, post=QUIET, K=5.0))
        window = (run.t >= 50.0) & (run.t <= 100.0)
        e1_sq = [e1 ** 2 for e1 in run.e[window, 0].tolist()]
        rms = math.sqrt(sum(e1_sq) / len(e1_sq))
        assert rms == pytest.approx(REFERENCE_E1_RMS_50_100, rel=1e-9)
        assert rms > 0.0

    def test_divergence_guard_carries_time(self):
        # strong coupling against a huge step makes the scheme blow up fast
        config = PairConfig(pre=CANON, post=QUIET, K=1e6)
        with pytest.raises(DivergenceError) as err:
            run_pair(SimSpec(dt=0.01, t_end=10.0), config)
        assert 0.0 < err.value.t <= 10.0

    @pytest.mark.parametrize("target, start, gain", [("a", 0.05, 5.0), ("m", 0.0005, 1.0)])
    def test_adapted_pole_stops_the_run(self, target, start, gain):
        # the energy divides by a and m*s: the run stops at the first step
        # that takes the adapted parameter to zero or across it
        config = PairConfig(
            pre=CANON, post=replace(QUIET, **{target: start}), K=5.0,
            adaptation=AdaptationSpec(target=target, gain=gain, start_time=0.0),
        )
        with pytest.raises(DivergenceError) as err:
            run_pair(SimSpec(dt=0.01, t_end=50.0), config)
        assert f"adapted parameter {target!r}" in str(err.value)
        assert f"t={err.value.t:g}" in str(err.value)
        steps = round(err.value.t / 0.01)
        before = run_pair(SimSpec(dt=0.01, t_end=(steps - 1) * 0.01), config)
        assert np.all(before.q > 0.0)

    def test_energy_uses_live_adapted_current(self):
        run = run_pair(REFERENCE_SPEC, REFERENCE_CONFIG)
        i = index_at(run, 150.0)
        post_state = run.post[i].tolist()
        live = astuple(replace(QUIET, I=float(run.q[i])))
        assert run.Hdot_post[i] == pytest.approx(energy_terms(*post_state, live)[1], rel=1e-12)
        stale = energy_terms(*post_state, astuple(QUIET))[1]
        assert run.Hdot_post[i] != pytest.approx(stale, rel=1e-6)


class Blocks(Sink):
    def __init__(self):
        self.blocks = []

    def put(self, block):
        self.blocks.append(np.array(block))


class TestSinks:
    @pytest.mark.parametrize("dt, t_end, record_every, transient", [
        (0.01, 2.0, 1, 0.0),
        (0.01, 2.0, 3, 0.5),
        (0.1, 3.0, 7, 1.3),
        (0.03, 0.3, 4, 0.29),  # no recorded step
        (1e-3, 0.05, 2, 0.007),
    ])
    def test_recorded_steps_are_the_recorded_times(self, dt, t_end, record_every, transient):
        spec = SimSpec(dt=dt, t_end=t_end, record_every=record_every, transient=transient)
        brute = [i for i in range(spec.n_steps + 1)
                 if i % record_every == 0 and i * dt >= transient - 1e-12]
        assert list(spec.recorded_steps) == brute
        times = run_isolated(spec, CANON).t.tolist()
        assert times == [i * dt for i in brute]

    @pytest.mark.parametrize("block_rows", [1, 6, 7, 8, 50, 4096])
    def test_blocks_make_up_the_trajectory(self, monkeypatch, block_rows):
        monkeypatch.setattr(sim, "BLOCK_ROWS", block_rows)
        spec = SimSpec(dt=0.01, t_end=1.5, record_every=2, transient=0.1)
        whole = run_pair(spec, REFERENCE_CONFIG)
        sink = run_pair(spec, REFERENCE_CONFIG, Blocks())
        assert len(sink) == len(whole) == 71
        assert [len(b) for b in sink.blocks[:-1]] == [block_rows] * (len(sink.blocks) - 1)
        assert 0 < len(sink.blocks[-1]) <= block_rows
        assert Trajectory.of_pair_rows(np.concatenate(sink.blocks)) == whole

    def test_lone_rows(self):
        spec = SimSpec(dt=0.01, t_end=0.5)
        run = run_isolated(spec, CANON)
        (block,) = run_isolated(spec, CANON, Blocks()).blocks
        assert block.tolist() == np.column_stack(
            (run.t, run.pre, run.H_pre, run.Hdot_pre)).tolist()

    def test_column_is_a_column_of_the_block(self, monkeypatch):
        monkeypatch.setattr(sim, "BLOCK_ROWS", 7)
        blocks = run_pair(SimSpec(dt=0.01, t_end=0.2), REFERENCE_CONFIG, Blocks()).blocks
        columns = []

        class Columns(Sink):
            def put(self, block):
                columns.append([Sink.column(block, c).tolist() for c in range(14)])

        run_pair(SimSpec(dt=0.01, t_end=0.2), REFERENCE_CONFIG, Columns())
        assert len(blocks) == len(columns) == 3
        for block, picked in zip(blocks, columns):
            assert picked == [block[:, c].tolist() for c in range(14)]

    def test_divergence_hands_over_no_partial_block(self, monkeypatch):
        monkeypatch.setattr(sim, "BLOCK_ROWS", 10)
        config = replace(REFERENCE_CONFIG, K=1e6)
        sink = Blocks()
        with pytest.raises(DivergenceError):
            run_pair(SimSpec(dt=0.01, t_end=10.0), config, sink)
        assert all(len(b) == 10 for b in sink.blocks)


@pytest.mark.parametrize("message", [None, "adapted parameter 'm' reached zero at t=1.5"])
def test_divergence_error_survives_pickling(message):
    error = DivergenceError(1.5, message)
    copy = pickle.loads(pickle.dumps(error))
    assert (type(copy), copy.t, str(copy)) == (DivergenceError, 1.5, str(error))


#: a pair whose adapted ``m`` reaches zero at t = 0.38, after 38 rows
POLE_CONFIG = replace(REFERENCE_CONFIG, post=replace(QUIET, m=0.0005),
                      adaptation=AdaptationSpec(target="m", start_time=0.0))


class TestIntegratingChild:
    """On two cores a run with a sink integrates in a forked child and hands
    the blocks over in this process."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(fork, "cores", lambda: 2)
        monkeypatch.setattr(sim, "BLOCK_ROWS", 10)

    def test_divergence_follows_the_full_blocks(self, monkeypatch):
        outcomes = []
        for cores in (1, 2):
            monkeypatch.setattr(fork, "cores", lambda: cores)
            sink = Blocks()
            with pytest.raises(DivergenceError) as caught:
                run_pair(SimSpec(dt=0.01, t_end=50.0), POLE_CONFIG, sink)
            blocks = [block.tolist() for block in sink.blocks]
            outcomes.append((caught.value.t, str(caught.value), len(sink), blocks))
        assert outcomes[0] == outcomes[1]
        assert outcomes[1][2] == 30

    def test_any_error_in_the_child_reaches_the_caller(self, monkeypatch):
        def fail(*args):
            raise ZeroDivisionError(os.getpid())

        monkeypatch.setattr(sim, "_integrate", fail)
        with pytest.raises(ZeroDivisionError) as caught:
            run_isolated(SimSpec(dt=0.01, t_end=1.0), CANON, Blocks())
        assert caught.value.args[0] != os.getpid()

    def test_child_that_ends_without_a_result_is_an_error(self, monkeypatch):
        caller = os.getpid()

        def die(*args):
            if os.getpid() != caller:
                os._exit(7)

        monkeypatch.setattr(sim, "_integrate", die)
        with pytest.raises(ChildProcessError):
            run_isolated(SimSpec(dt=0.01, t_end=1.0), CANON, Blocks())

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files on Linux")
    def test_failed_fork_closes_its_pipe(self, monkeypatch):
        # a fork refused under a process limit closes the pipe it made, and
        # the run goes on in process with the rows of a one-CPU run
        spec, refused = SimSpec(dt=0.01, t_end=1.0), []
        monkeypatch.setattr(fork, "cores", lambda: 1)
        alone = run_isolated(spec, CANON, Blocks())

        def refused_fork():
            refused.append(None)
            raise BlockingIOError("no process left")

        monkeypatch.setattr(os, "fork", refused_fork)
        monkeypatch.setattr(fork, "cores", lambda: 2)
        before = sorted(os.listdir("/proc/self/fd"))
        sink = run_isolated(spec, CANON, Blocks())
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert len(refused) == 1
        assert [block.tolist() for block in sink.blocks] == [
            block.tolist() for block in alone.blocks]

    @pytest.mark.parametrize("case", ["no sink", "collector", "one block", "one core",
                                      "no fork", "one-K sweep", "no-fork sweep"])
    def test_stays_in_process(self, monkeypatch, case):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        if case == "one block":
            monkeypatch.setattr(sim, "BLOCK_ROWS", 101)
        elif case == "one core":
            monkeypatch.setattr(fork, "cores", lambda: 1)
        elif case in ("no fork", "no-fork sweep"):
            monkeypatch.delattr(os, "fork")
        spec = SimSpec(dt=0.01, t_end=1.0)
        if case.endswith("sweep"):
            # on two cores and several blocks: one K makes one group, whose
            # window sink is a Collector; without os.fork each group runs here
            monkeypatch.setattr(fork, "cores", lambda: 2)
            monkeypatch.setattr(sim, "BLOCK_ROWS", 50)
            ks = [5.0] if case == "one-K sweep" else [5.0, 6.0, 7.0]
            summaries = sweep_K(ks, spec, replace(REFERENCE_CONFIG, adaptation=None),
                                pre_window=(0.1, 0.5), post_window=(0.5, 1.0))
            assert [summary.error for summary in summaries] == [None] * len(ks)
            return
        sink = {"no sink": None, "collector": sim.Collector()}.get(case, Blocks())
        run = run_pair(spec, REFERENCE_CONFIG, sink)
        assert len(run) == 101

    def test_pool_worker_forks_like_any_caller(self):
        # the fixture's two cores and 10-row blocks reach the forked worker
        spec = SimSpec(dt=0.01, t_end=1.0)
        with ProcessPoolExecutor(max_workers=1,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            forks, blocks, child_left = pool.submit(run_in_worker, spec).result()
        assert forks == 1
        assert not child_left
        assert [len(block) for block in blocks] == [10] * 10 + [1]
        assert Trajectory.of_pair_rows(np.concatenate(blocks)) == run_pair(spec, REFERENCE_CONFIG)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
def test_one_cpu_of_affinity_runs_in_process(monkeypatch):
    # a host of 8 CPUs of which this process may use one, as under taskset:
    # a pair run of 4 blocks integrates here, and a 2-K sweep is one group
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    monkeypatch.setattr(os, "fork", no_fork)
    assert fork.cores() == 1
    sink = run_pair(SimSpec(dt=0.01, t_end=20.0), REFERENCE_CONFIG, Blocks())
    assert [len(block) for block in sink.blocks] == [512, 512, 512, 465]
    drives = []
    monkeypatch.setattr(analysis, "_drive", lambda spec, configs, *rest: drives.append(
        len(configs)) or sim._drive(spec, configs, *rest))
    summaries = sweep_K([0.5, 2.0], SimSpec(dt=0.01, t_end=1.0),
                        replace(REFERENCE_CONFIG, adaptation=None),
                        pre_window=(0.1, 0.5), post_window=(0.5, 1.0))
    assert [summary.error for summary in summaries] == [None, None]
    assert drives == [2]


def test_cores_follow_the_affinity_mask_or_the_host():
    # a real one-CPU mask, set in a child so this process keeps its own
    script = ("import os; from hrsync import fork; "
              "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); print(fork.cores())")
    if hasattr(os, "sched_setaffinity"):
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert run.stdout == "1\n", run.stderr
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(os, "sched_getaffinity", raising=False)
        patch.setattr(os, "cpu_count", lambda: 3)
        assert fork.cores() == 3
        patch.setattr(os, "cpu_count", lambda: None)
        assert fork.cores() == 1


def test_unread_counts_the_bytes_waiting_in_a_pipe(monkeypatch):
    import fcntl

    reader, writer = os.pipe()
    try:
        os.write(writer, bytes(1000))
        os.read(reader, 300)
        # either end of the pipe: an integrating child asks through its own
        assert fork.unread(writer) == fork.unread(reader) == 700

        def refused(*args):
            raise OSError("FIONREAD refused")

        monkeypatch.setattr(fcntl, "ioctl", refused)
        assert fork.unread(writer) == 0
    finally:
        os.close(reader)
        os.close(writer)


def run_in_worker(spec):
    """Run the reference pair into :class:`Blocks` in this process: the number
    of forks it made, its blocks, and whether it left a child behind."""
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    os.fork = counting_fork
    try:
        blocks = run_pair(spec, REFERENCE_CONFIG, Blocks()).blocks
    finally:
        os.fork = real_fork
    try:
        os.waitpid(-1, os.WNOHANG)
        child_left = True
    except ChildProcessError:
        child_left = False
    return len(forks), blocks, child_left


class TestRunIsolated:
    def test_zero_field_params_give_constant_state(self):
        null = NeuronParams(a=1, b=0, c=0, d=0, xi=0, I=0, e=0, f=0, g=0,
                            m=1, s=1, h=0, n=0, k=0, r=0, l=0, p=-1)
        start = NeuronState(0.0, 0.0, 0.0, 0.0)
        spec = SimSpec(dt=0.1, t_end=5.0, initial_pre=start)
        run = run_isolated(spec, null)
        assert np.all(run.pre == start.as_tuple())

    def test_samples_mirror_single_neuron(self):
        run = run_isolated(SimSpec(dt=0.01, t_end=1.0), CANON)
        np.testing.assert_array_equal(run.pre, run.post)
        assert np.all(run.e == 0.0)
        np.testing.assert_array_equal(run.H_pre, run.H_post)
        np.testing.assert_array_equal(run.Hdot_pre, run.Hdot_post)
        assert np.all(run.q == CANON.I)

    def test_long_run_energy_balance(self):
        spec = SimSpec(dt=0.01, t_end=2000.0, record_every=10, transient=500.0)
        mean_hdot = np.mean(run_isolated(spec, CANON).Hdot_pre)
        assert abs(mean_hdot) < 0.5

    def test_low_current_goes_quiescent(self):
        spec = SimSpec(dt=0.01, t_end=1000.0, record_every=5)
        run = run_isolated(spec, QUIET)
        x = run.pre[:, 0]
        t = run.t
        first = np.ptp(x[t <= 100.0])
        last = np.ptp(x[t >= 900.0])
        assert last < first
        assert last < 0.1

    def test_divergence_guard(self):
        # dx/dt = x^2 from 1 blows up at t=1; the guard fires near it
        runaway = NeuronParams(a=1, b=1, c=0, d=0, xi=0, I=0, e=0, f=0, g=0,
                               m=1, s=1, h=0, n=0, k=0, r=0, l=0, p=-1)
        spec = SimSpec(dt=0.001, t_end=2.0, initial_pre=NeuronState(1, 0, 0, 0))
        with pytest.raises(DivergenceError) as err:
            run_isolated(spec, runaway)
        assert 0.9 < err.value.t < 1.05


def bits(values):
    return [float(v).hex() for v in values]


def recorded(row, t, state, sinks=1):
    """The rows that the generated ``row`` hands its ``sinks`` at ``t``."""
    rows = [[] for _ in range(sinks)]
    row(t, state, [r.extend for r in rows])
    return rows


class TestGeneratedKernels:
    """The straight-line steps and sample rows generated from the expression
    tables equal, bit for bit, the oracles' ``rk4_step`` over the per-point
    kernels: the pair's ``coupled_derivative`` (a sender with one receiver)
    and the lone neuron's ``field`` (a sender with none)."""

    DT = 0.01

    @pytest.mark.parametrize("gain", [1.0, 2.7])
    @pytest.mark.parametrize("active", [False, True], ids=["idle", "active"])
    @pytest.mark.parametrize("target", ADAPTABLE_PARAMS)
    def test_pair_step_and_row(self, target, active, gain):
        pre = replace(CANON, xi=1.3)
        post = replace(QUIET, **{target: 1.1 * getattr(QUIET, target)})
        # idle: the law starts after the last of the 200 steps
        start = 0.0 if active else 1000.0
        # 2.7 rounds in K*(x1 - x2), so a regrouped coupling term shows; 2.0 does not
        for K in (2.0, 2.7):
            config = PairConfig(pre=pre, post=post, K=K,
                                adaptation=AdaptationSpec(target=target, gain=gain,
                                                          start_time=start))
            idle, adapting, row, _ = _kernels(pre, [config], self.DT)
            step = adapting if active else idle
            P_pre, P_post = astuple(pre), list(astuple(post))
            state = (0.4, -0.3, 1.0, 0.2, 0.1, 0.5, 0.8, -0.25, getattr(post, target))
            ref = state
            for i in range(200):
                t = i * self.DT
                P_post[PARAM_INDEX[target]] = state[8]
                want = (t, *state, *energy_terms(*state[:4], P_pre)[:2],
                        *energy_terms(*state[4:8], P_post)[:2])
                assert bits(recorded(row, t, state)[0]) == bits(want), K
                state = step(state)
                ref = rk4_step(lambda s, t: coupled_derivative(s, config, t), ref, t, self.DT)
                assert bits(state) == bits(ref), K
            assert (state[8] != getattr(post, target)) == active

    def test_lone_step_and_row(self):
        params = replace(CANON, xi=1.3)
        step, same, row, _ = _kernels(params, [], self.DT)
        assert same is step
        P = astuple(params)
        state = ref = (0.1, 0.2, 0.3, 0.1)
        for i in range(200):
            t = i * self.DT
            want = (t, *state, *energy_terms(*state, P)[:2])
            assert bits(recorded(row, t, state)[0]) == bits(want)
            state = step(state)
            ref = rk4_step(lambda s, t: field(*s, P), ref, t, self.DT)
            assert bits(state) == bits(ref)

    def test_generated_source_holds_no_config_value(self):
        # run constants are bound as default arguments, never written as text
        pre = replace(CANON, d=0.987654321)
        config = PairConfig(pre=pre, post=QUIET, K=2.345678,
                            adaptation=AdaptationSpec(target="f", gain=2.7))
        other = replace(config, K=1.5, post=replace(QUIET, d=0.5))
        kernels = (*_kernels(pre, [config], 0.0123), *_kernels(pre, [], 0.0123),
                   *_kernels(pre, [config, other, config], 0.0123))
        for kernel in kernels:
            for value in (0.987654321, 2.345678, 2.7, -2.7, 0.0123, QUIET.f, QUIET.I):
                assert repr(value) not in kernel.source


def receivers(target, adapt, ks, start=0.0, post=None):
    """Pair configs that share the sender ``CANON`` and differ in ``K``: the
    receiver's ``target`` starts 10% off its quiet value."""
    post = post or replace(QUIET, **{target: 1.1 * getattr(QUIET, target)})
    adaptation = AdaptationSpec(target=target, gain=2.7, start_time=start) if adapt else None
    return [PairConfig(pre=CANON, post=post, K=K, adaptation=adaptation) for K in ks]


@pytest.mark.parametrize("count, target, adapt", [(0, "I", False)] + [
    (count, target, adapt) for count in (1, 3) for target in ADAPTABLE_PARAMS
    for adapt in (False, True)])
def test_fold_gives_the_source_of_the_reference_fold(monkeypatch, count, target, adapt):
    # the one-pass fold binds the same constants, under the same names, as
    # the fold that walked each operation's subtree
    configs = receivers(target, adapt, (2.0, 2.7, 0.5)[:count])
    folded = [kernel.source for kernel in _kernels(CANON, configs, 0.01)]
    monkeypatch.setattr(codegen, "_Fold", Fold)
    assert folded == [kernel.source for kernel in _kernels(CANON, configs, 0.01)]


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize("target", ["I", "f", "m"])
def test_shape_fold_gives_the_source_of_folding_each_line(monkeypatch, count, target):
    # one fold per distinct shape binds the constants, and names them, as
    # folding every line by itself did
    calls = []
    monkeypatch.setattr(sim, "compile_kernel", lambda *args: calls.append(args)
                        or codegen.compile_kernel(*args))
    _kernels(CANON, receivers(target, True, (2.0, 2.7, 0.5)[:count]), 0.01)
    assert len(calls) == 3 + (count > 0)
    for args in calls:
        assert codegen.compile_kernel(*args).source == folded_source(*args)


@pytest.mark.parametrize("target, adapt", [("I", True), ("a", False), ("m", True)])
def test_folds_do_not_grow_with_stages_or_receivers(monkeypatch, target, adapt):
    # the four RK4 stages of a step, and receivers that differ only in K,
    # share the fold of each distinct shape
    fold = codegen._Fold

    def folds(ks):
        calls = []

        class Counted(fold):
            def __call__(self, tree):
                calls.append(tree)
                return super().__call__(tree)

        monkeypatch.setattr(codegen, "_Fold", Counted)
        idle, *_ = _kernels(CANON, receivers(target, adapt, ks), 0.01)
        return len(calls), idle.source.count("\n")

    (one, step_lines), (three, _) = folds((2.0,)), folds((2.0, 2.7, 0.5))
    assert one == three
    # every kernel of the set takes fewer folds than one step has lines
    assert one < step_lines


class TestReceivers:
    """One sender driving several receivers: each receiver's rows, and the
    error that stops it, are those of its own pair run, bit for bit."""

    # with the law from t = 2, the adapted a reaches zero from t = 3.86 on
    SPEC = SimSpec(dt=0.01, t_end=3.5, record_every=2)

    @staticmethod
    def own_run(spec, config):
        """The blocks, as lists, and the error of ``config``'s own pair run."""
        sink = Blocks()
        try:
            run_pair(spec, config, sink)
        except DivergenceError as exc:
            return [b.tolist() for b in sink.blocks], (exc.t, str(exc))
        return [b.tolist() for b in sink.blocks], None

    def drive(self, spec, configs):
        """Each receiver's blocks, as lists, and error, from one run."""
        sinks = [Blocks() for _ in configs]
        errors = sim._drive(spec, configs, sinks, [spec.recorded_steps])
        return [([b.tolist() for b in sink.blocks], error and (error.t, str(error)))
                for sink, error in zip(sinks, errors)]

    @pytest.mark.parametrize("count", [2, 3, 5])
    @pytest.mark.parametrize("adapt", [False, True], ids=["fixed", "adapting"])
    @pytest.mark.parametrize("target", ["I", "f", "a"])
    def test_each_receiver_is_its_own_pair_run(self, target, adapt, count):
        configs = receivers(target, adapt, (0.5, 2.7, 0.0, 5.0, 1.3)[:count], start=2.0)
        sinks = [sim.Collector() for _ in configs]
        assert sim._drive(self.SPEC, configs, sinks, [self.SPEC.recorded_steps]) == [None] * count
        for config, sink in zip(configs, sinks):
            assert Trajectory.of_pair_rows(sink.table(14)) == run_pair(self.SPEC, config)

    def test_receivers_share_the_block_rows(self, monkeypatch):
        # three receivers get blocks of 10 // 3 rows each, so together they
        # hold no more rows at once than one run
        monkeypatch.setattr(sim, "BLOCK_ROWS", 10)
        for blocks, error in self.drive(self.SPEC, receivers("I", True, (0.5, 1.0, 2.0))):
            assert error is None
            assert [len(block) for block in blocks] == [3] * 58 + [2]

    @pytest.mark.parametrize("block_rows", [10, 4096])
    def test_a_failing_receiver_stops_alone(self, monkeypatch, block_rows):
        # K = 1e6 fails early; the rest go on with their own bits, and the
        # failed one keeps only its full blocks, as its own run does
        monkeypatch.setattr(sim, "BLOCK_ROWS", block_rows)
        spec = SimSpec(dt=0.01, t_end=10.0)
        configs = receivers("I", True, (5.0, 1e6, 0.5), start=1.0)
        got = self.drive(spec, configs)
        monkeypatch.setattr(sim, "BLOCK_ROWS", block_rows // 3)
        want = [self.own_run(spec, config) for config in configs]
        assert [error for _, error in want] == [None, want[1][1], None]
        assert want[1][1] is not None
        assert got == want

    def test_late_pole_stops_only_its_receiver(self, monkeypatch):
        # with m = 0.01 the law drives the adapted m through zero just after
        # it starts at t = 100 at K = 2 and 5, and away from zero at K = 0.5
        spec = SimSpec(dt=0.01, t_end=110.0, record_every=10)
        configs = receivers("m", True, (2.0, 0.5, 5.0), start=100.0, post=replace(QUIET, m=0.01))
        got = self.drive(spec, configs)
        monkeypatch.setattr(sim, "BLOCK_ROWS", sim.BLOCK_ROWS // len(configs))
        assert got == [self.own_run(spec, config) for config in configs]
        assert [error is None for _, error in got] == [False, True, False]
        assert all(100.0 < error[0] < 101.0 for _, error in (got[0], got[2]))
        assert "adapted parameter 'm'" in got[0][1][1]

    def test_a_failing_sender_stops_every_receiver(self, monkeypatch):
        # dx/dt = x^2 from 1 blows the sender up near t = 1
        runaway = NeuronParams(a=1, b=1, c=0, d=0, xi=0, I=0, e=0, f=0, g=0,
                               m=1, s=1, h=0, n=0, k=0, r=0, l=0, p=-1)
        spec = SimSpec(dt=0.001, t_end=2.0, initial_pre=NeuronState(1, 0, 0, 0))
        configs = [replace(config, pre=runaway) for config in receivers("I", True, (0.5, 5.0))]
        got = self.drive(spec, configs)
        monkeypatch.setattr(sim, "BLOCK_ROWS", sim.BLOCK_ROWS // len(configs))
        assert got == [self.own_run(spec, config) for config in configs]
        assert all(error is not None and 0.9 < error[0] < 1.05 for _, error in got)


class TestIndependentIntegrator:
    """RK4 runs against scipy's DOP853 at tight tolerances, an integrator
    that shares no code with ``sim``: the gap at t = 5 is RK4's error, so it
    is small and shrinks about 16-fold when ``dt`` is halved."""

    T_END = 5.0

    @staticmethod
    def reference(rhs, start, t_end):
        integrate = pytest.importorskip("scipy.integrate")
        solution = integrate.solve_ivp(rhs, (0.0, t_end), start, method="DOP853",
                                       rtol=1e-12, atol=1e-12)
        assert solution.success
        return solution.y[:, -1]

    def check(self, run, reference):
        gaps = [np.max(np.abs(run(dt) - reference)) for dt in (0.01, 0.005)]
        assert gaps[0] < 2e-6, gaps
        assert gaps[0] > 12 * gaps[1], gaps

    def test_pair_with_adaptation(self):
        config = PairConfig(pre=CANON, post=QUIET, K=5.0, adaptation=AdaptationSpec(start_time=0.0))
        spec = SimSpec(t_end=self.T_END)
        start = [*spec.initial_pre.as_tuple(), *spec.initial_post.as_tuple(), QUIET.I]

        def run(dt):
            last = run_pair(replace(spec, dt=dt), config)
            return np.array([*last.pre[-1], *last.post[-1], last.q[-1]])

        self.check(run, self.reference(lambda t, s: coupled_derivative(s, config, t),
                                       start, self.T_END))

    def test_lone_neuron(self):
        spec = SimSpec(t_end=self.T_END)
        P = astuple(CANON)

        def run(dt):
            return run_isolated(replace(spec, dt=dt), CANON).pre[-1]

        self.check(run, self.reference(lambda t, s: field(*s, P),
                                       list(spec.initial_pre.as_tuple()), self.T_END))
