"""Acceptance suite: one test per criterion, one printed verdict line each.

Every criterion is asserted at its stated tolerance with the canonical
parameters (sender ``I1 = 3.024``, receiver ``I2 = 0.85``), ``dt = 0.01``,
coupling ``K = 5`` (the K-list ``0, 0.5, 1, 1.5, 2`` for the sweep), adaptive
gain 1 and the fixed near-origin start states. The measured values are
printed so the verdict lines double as a report.

Criteria 5-7 read the forced regime and its removal by the adaptive law.
Both live on the slow time scales of the model, so each protocol is set by
them:

* the receiver starts cold, and its slow currents relax from that start on
  ``1/m ~ 465`` (``z``) and ``1/(n*k) ~ 1160`` (``w``);
* the forced regime bursts, and its energy means swing with bursts about
  300 time units apart, so a mean is only stable over several of them.

Criterion 5 drives the receiver without adaptation, discards the first
``1/m`` of relaxation and averages over 1000 units. Criterion 6 switches the
adaptive law on at t = 100 and reads the outcome at t = 3000. By then both
slow mismatches have decayed: the current gap shrinks as ``exp(-m*t)`` and
the state error as ``exp(-n*k*t)``. Criterion 7 sweeps the coupling with
windows of 500 units, the first after the relaxation and the second after
the adaptation switched on at t = 1000.

Criterion 10 is the paper's central claim: forced synchrony creates the
conditions under which the adaptive law works. With criterion 6's protocol,
the adapted current settles on the sender's only where the coupling forces
synchrony (K = 0.5 and 1), and keeps wandering below that (K = 0.3).

Criteria 5-7 and 10 bound their runtime per RK4 step, since their horizons
are set by the model rather than by a time budget.
"""

import time
from dataclasses import astuple, replace

import numpy as np

from hrsync.analysis import sweep_K, sync_rms, windowed_average
from hrsync.energy import energy_terms
from hrsync.model import NeuronParams, NeuronState, conservative
from hrsync.sim import AdaptationSpec, PairConfig, SimSpec, run_isolated, run_pair

from oracles import fd_gradient

CANON = NeuronParams.canonical(I=3.024)
QUIET = NeuronParams.canonical(I=0.85)
DEFAULT_SPEC = SimSpec(dt=0.01, t_end=200.0)
DEFAULT_CONFIG = PairConfig(
    pre=CANON, post=QUIET, K=5.0, adaptation=AdaptationSpec(start_time=100.0)
)

# Horizons and windows of criteria 5-7, from the receiver's slow time scales
# 1/m ~ 465 (z) and 1/(n*k) ~ 1160 (w) and the ~300-unit burst spacing.
#: Criterion 5: discard 500 > 1/m of relaxation, then average the forced
#: regime over 1000 units, more than three burst spacings.
FORCED_WINDOW = (500.0, 1500.0)
#: Criterion 6: the end is 2900 units after the switch at t=100, about
#: 6.2/m and 2.5/(n*k), so both the current gap (decaying at rate m) and the
#: state error (decaying at rate n*k) have died out. The cost is averaged over
#: the last 1000 units; the RMS reads the last 10, where the error has decayed.
ADAPTED_T_END = 3000.0
ADAPTED_COST_SPAN = 1000.0
ADAPTED_RMS_SPAN = 10.0
#: Criterion 7: adaptation at t=1000. Each window spans 500 units, more than
#: a burst spacing, and begins 500 > 1/m after the cold start or the switch.
SWEEP_T_END = 2000.0
SWEEP_ADAPT_AT = 1000.0
SWEEP_PRE_WINDOW = (500.0, 1000.0)
SWEEP_POST_WINDOW = (1500.0, 2000.0)

#: Criterion 10: criterion 6's protocol at couplings below and above the
#: threshold, between K = 0.45 and 0.5. Below it the adapted current wanders
#: (at K = 0.3 it ends near 3.024 while |e| is 4.6), so the statistic is its
#: largest gap over the last 1000 units, not its end value.
THRESHOLD_WINDOW = (2000.0, 3000.0)

#: Allowed wall time per RK4 step: 5 s / 20 000 steps for a pair run and
#: 30 s / 100 000 steps for the five-run sweep.
PAIR_US_PER_STEP = 250.0
SWEEP_US_PER_STEP = 300.0


class Criterion:
    def __init__(self, number, title):
        self.label = f"ACCEPTANCE {number} ({title})"
        self.clauses = []

    def check(self, ok, detail):
        self.clauses.append((bool(ok), detail))

    def check_step_cost(self, elapsed, steps, allowance_us):
        per_step = elapsed / steps * 1e6
        self.check(
            per_step < allowance_us,
            f"runtime {elapsed:.3f}s over {steps} steps = "
            f"{per_step:.1f} us/step < {allowance_us:g}",
        )

    def conclude(self):
        ok = all(flag for flag, _ in self.clauses)
        details = "; ".join(
            f"{'ok' if flag else 'VIOLATED'}: {detail}" for flag, detail in self.clauses
        )
        print(f"{self.label}: {'PASS' if ok else 'FAIL'} [{details}]")
        assert ok, f"{self.label}: {details}"


def random_states(n, seed):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(-2, 2, 4).tolist()) for _ in range(n)]


def timed_pair_run(spec, config):
    start = time.perf_counter()
    run = run_pair(spec, config)
    return run, time.perf_counter() - start


def windowed_mean(run, value_key, window, t_lo, t_hi):
    series = windowed_average(run.t, getattr(run, value_key), window)
    mask = (series.times >= t_lo) & (series.times <= t_hi)
    return float(series.values[mask].mean())


def test_criterion_1_gradient_correctness():
    crit = Criterion(1, "gradient vs finite differences")
    start = time.perf_counter()
    worst = 0.0
    P = astuple(CANON)
    for state in random_states(100, seed=101):
        grad = np.array(energy_terms(*state, P)[2])
        fd = fd_gradient(lambda *s: energy_terms(*s, P)[0], state, step=1e-6)
        worst = max(worst, np.linalg.norm(fd - grad) / (1.0 + np.linalg.norm(grad)))
    elapsed = time.perf_counter() - start
    crit.check(worst <= 1e-6, f"max rel gradient error {worst:.3e} <= 1e-6")
    crit.check(elapsed < 1.0, f"runtime {elapsed:.3f}s < 1s")
    crit.conclude()


def test_criterion_2_conservative_orthogonality():
    crit = Criterion(2, "gradient orthogonal to conservative part")
    start = time.perf_counter()
    worst = 0.0
    P = astuple(CANON)
    for state in random_states(100, seed=101):
        grad = np.array(energy_terms(*state, P)[2])
        cons = np.array(conservative(*state, P))
        bound = 1e-10 * (1.0 + np.linalg.norm(grad) * np.linalg.norm(cons))
        worst = max(worst, abs(float(grad @ cons)) / bound)
    elapsed = time.perf_counter() - start
    crit.check(worst <= 1.0, f"max normalized |grad.f_c| {worst:.3e} of allowance")
    crit.check(elapsed < 1.0, f"runtime {elapsed:.3f}s < 1s")
    crit.conclude()


def test_criterion_3_integrator_order():
    crit = Criterion(3, "fourth-order self-convergence")
    start = time.perf_counter()
    finals = {}
    for dt in (0.02, 0.01, 0.005):
        spec = SimSpec(dt=dt, t_end=1.0, record_every=round(1.0 / dt))
        finals[dt] = run_isolated(spec, CANON).pre[-1]
    factor = np.linalg.norm(finals[0.02] - finals[0.01]) / np.linalg.norm(
        finals[0.01] - finals[0.005]
    )
    elapsed = time.perf_counter() - start
    crit.check(12.0 <= factor <= 20.0, f"convergence factor {factor:.2f} in [12, 20]")
    crit.check(elapsed < 5.0, f"runtime {elapsed:.3f}s < 5s")
    crit.conclude()


def test_criterion_4_isolated_energy_balance():
    crit = Criterion(4, "free neuron exchanges zero net energy")
    start = time.perf_counter()
    spec = SimSpec(dt=0.01, t_end=2000.0, record_every=10, transient=500.0)
    mean_hdot = float(np.mean(run_isolated(spec, CANON).Hdot_pre))
    elapsed = time.perf_counter() - start
    crit.check(abs(mean_hdot) < 0.5, f"|mean Hdot[500,2000]| = {abs(mean_hdot):.4f} < 0.5")
    crit.check(elapsed < 10.0, f"runtime {elapsed:.3f}s < 10s")
    crit.conclude()


def test_criterion_5_forced_regime_cost():
    crit = Criterion(5, "forced-regime energy cost")
    lo, hi = FORCED_WINDOW
    spec = SimSpec(dt=0.01, t_end=hi, record_every=10)
    run, elapsed = timed_pair_run(spec, replace(DEFAULT_CONFIG, adaptation=None))
    h_avg = windowed_mean(run, "H_post", 10.0, lo, hi)
    hdot_avg = abs(windowed_mean(run, "Hdot_post", 5.0, lo, hi))
    crit.check(
        46.0 <= abs(h_avg) <= 86.0,
        f"|mean avgH2_w10[{lo:g},{hi:g}]| = {abs(h_avg):.2f} in [46, 86] (signed {h_avg:.2f})",
    )
    crit.check(7.0 <= hdot_avg <= 21.0,
               f"|mean avgHdot2_w5[{lo:g},{hi:g}]| = {hdot_avg:.2f} in [7, 21]")
    crit.check_step_cost(elapsed, spec.n_steps, PAIR_US_PER_STEP)
    crit.conclude()


def test_criterion_6_adaptation_convergence():
    crit = Criterion(6, "adaptation removes the synchronization cost")
    spec = SimSpec(dt=0.01, t_end=ADAPTED_T_END, record_every=10)
    run, elapsed = timed_pair_run(spec, DEFAULT_CONFIG)
    t_final = float(run.t[-1])
    cost_lo, rms_lo = t_final - ADAPTED_COST_SPAN, t_final - ADAPTED_RMS_SPAN
    gap = abs(run.q[-1] - 3.024)
    hdot_avg = abs(windowed_mean(run, "Hdot_post", 5.0, cost_lo, t_final))
    rms = sync_rms(run, rms_lo, t_final)
    crit.check(gap < 0.01, f"|I2({t_final:g}) - 3.024| = {gap:.4f} < 0.01")
    crit.check(hdot_avg < 0.5,
               f"|mean avgHdot2_w5[{cost_lo:g},{t_final:g}]| = {hdot_avg:.4f} < 0.5")
    crit.check(rms < 1e-2, f"sync RMS[{rms_lo:g},{t_final:g}] = {rms:.4f} < 0.01")
    crit.check_step_cost(elapsed, spec.n_steps, PAIR_US_PER_STEP)
    crit.conclude()


def test_criterion_7_sweep_shape():
    crit = Criterion(7, "dissipation grows with coupling, adaptation removes it")
    k_values = [0.0, 0.5, 1.0, 1.5, 2.0]
    spec = SimSpec(dt=0.01, t_end=SWEEP_T_END, record_every=10)
    config = replace(DEFAULT_CONFIG, adaptation=AdaptationSpec(start_time=SWEEP_ADAPT_AT))
    start = time.perf_counter()
    summaries = sweep_K(k_values, spec, config,
                        pre_window=SWEEP_PRE_WINDOW, post_window=SWEEP_POST_WINDOW)
    elapsed = time.perf_counter() - start
    by_k = {s.K: s for s in summaries}
    crit.check(all(s.error is None for s in summaries), "all runs completed")
    crit.check(
        abs(by_k[0.0].pre_adapt_avg_Hdot) < 0.5,
        f"|preHdot(K=0)| = {abs(by_k[0.0].pre_adapt_avg_Hdot):.4f} < 0.5",
    )
    crit.check(
        abs(by_k[2.0].pre_adapt_avg_Hdot) > abs(by_k[0.5].pre_adapt_avg_Hdot),
        f"|preHdot(K=2)| = {abs(by_k[2.0].pre_adapt_avg_Hdot):.4f} > "
        f"|preHdot(K=0.5)| = {abs(by_k[0.5].pre_adapt_avg_Hdot):.4f}",
    )
    post_mags = {s.K: abs(s.post_adapt_avg_Hdot) for s in summaries}
    crit.check(
        all(v < 0.5 for v in post_mags.values()),
        "all |postHdot| < 0.5: " + ", ".join(f"K={k:g}: {v:.3f}" for k, v in post_mags.items()),
    )
    crit.check_step_cost(elapsed, len(k_values) * spec.n_steps, SWEEP_US_PER_STEP)
    crit.conclude()


def test_criterion_8_decoupled_identity():
    crit = Criterion(8, "decoupled identical neurons never separate")
    start = time.perf_counter()
    shared = NeuronState(0.1, 0.2, 0.3, 0.1)
    spec = replace(DEFAULT_SPEC, initial_pre=shared, initial_post=shared)
    config = PairConfig(pre=CANON, post=CANON, K=0.0,
                        adaptation=AdaptationSpec(start_time=100.0))
    run = run_pair(spec, config)
    worst = float(np.abs(run.e).max())
    elapsed = time.perf_counter() - start
    crit.check(worst == 0.0, f"max |e| over {len(run)} samples = {worst:g} (exact zero)")
    crit.check(elapsed < 5.0, f"runtime {elapsed:.3f}s < 5s")
    crit.conclude()


def test_criterion_9_cli_determinism(tmp_path):
    from hrsync.cli import main

    crit = Criterion(9, "byte-identical CSV output")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["pair", "--out", str(first)]) == 0
    assert main(["pair", "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    crit.check(identical, f"two default pair runs wrote identical bytes ({first.stat().st_size} each)")
    crit.conclude()


def test_criterion_10_adaptation_needs_forced_synchrony():
    crit = Criterion(10, "adaptation needs forced synchrony")
    spec = SimSpec(dt=0.01, t_end=ADAPTED_T_END, record_every=10)
    lo, hi = THRESHOLD_WINDOW
    elapsed = 0.0
    for K, converges in ((0.3, False), (0.5, True), (1.0, True)):
        run, seconds = timed_pair_run(spec, replace(DEFAULT_CONFIG, K=K))
        elapsed += seconds
        in_window = (run.t >= lo) & (run.t <= hi)
        gap = float(np.abs(run.q[in_window] - 3.024).max())
        label = f"K={K:g}: max |I2 - 3.024| over [{lo:g},{hi:g}] = {gap:.4f}"
        crit.check(gap < 0.05 if converges else gap > 1.0,
                   f"{label} {'< 0.05' if converges else '> 1'}")
    crit.check_step_cost(elapsed, 3 * spec.n_steps, PAIR_US_PER_STEP)
    crit.conclude()
