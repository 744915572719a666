import math

import numpy as np
import pytest

from hrsync.analysis import (
    SweepSummary,
    sweep_K,
    sync_rms,
    windowed_average,
)
from hrsync.model import NeuronParams
from hrsync.sim import AdaptationSpec, PairConfig, SimSpec, Trajectory, run_pair

CANON = NeuronParams.canonical(I=3.024)
QUIET = NeuronParams.canonical(I=0.85)
REFERENCE_CONFIG = PairConfig(
    pre=CANON, post=QUIET, K=5.0, adaptation=AdaptationSpec(start_time=100.0)
)

# frozen from the reference run (dt=0.01, default initial conditions)
REFERENCE_SYNC_RMS_50_100 = 1.3031743962856264


def fake_run(times, e=(0.0, 0.0, 0.0, 0.0)):
    n = len(times)
    state = np.zeros((n, 4))
    zeros = np.zeros(n)
    return Trajectory(t=np.array(times, dtype=float), pre=state, post=state + e,
                      q=np.full(n, 0.85), H_pre=zeros, Hdot_pre=zeros,
                      H_post=zeros, Hdot_post=zeros)


class TestWindowedAverage:
    def test_constant_series(self):
        t = np.arange(100) * 0.5
        out = windowed_average(t, np.full(100, 3.7), 5.0)
        np.testing.assert_allclose(out.values, 3.7, rtol=1e-12)
        assert len(out) == 100 - 10 + 1

    def test_alternating_series_cancels(self):
        t = np.arange(64) * 1.0
        v = np.where(np.arange(64) % 2 == 0, 1.0, -1.0)
        out = windowed_average(t, v, 4.0)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-15)

    def test_unit_ramp_closed_form(self):
        # trailing window of duration w lags a unit ramp by w/2 - spacing/2
        spacing = 0.25
        t = np.arange(200) * spacing
        out = windowed_average(t, t.copy(), 5.0)
        np.testing.assert_allclose(out.values, out.times - 2.5 + spacing / 2, rtol=1e-12)

    def test_emission_times_and_length(self):
        t = np.arange(50) * 0.1
        out = windowed_average(t, np.ones(50), 1.0)
        assert len(out.values) == 50 - 10 + 1
        assert out.times[0] == pytest.approx(t[9])
        assert out.times[-1] == pytest.approx(t[-1])

    def test_output_within_window_extremes(self):
        rng = np.random.default_rng(5)
        t = np.arange(300) * 0.2
        v = rng.normal(size=300)
        out = windowed_average(t, v, 3.0)
        k = 300 - len(out.values) + 1
        for i, value in enumerate(out.values):
            window = v[i : i + k]
            assert window.min() - 1e-12 <= value <= window.max() + 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(6)
        t = np.arange(400) * 0.05
        u, v = rng.normal(size=400), rng.normal(size=400)
        alpha, beta = 2.5, -1.25
        combined = windowed_average(t, alpha * u + beta * v, 2.0).values
        parts = (
            alpha * windowed_average(t, u, 2.0).values
            + beta * windowed_average(t, v, 2.0).values
        )
        np.testing.assert_allclose(combined, parts, rtol=1e-9, atol=1e-12)

    def test_prefix_invariance(self):
        # dropping a leading stretch shorter than the window does not change
        # the averages emitted at the surviving times
        rng = np.random.default_rng(7)
        v = rng.normal(size=500)
        t = np.arange(500) * 0.1
        full = windowed_average(t, v, 4.0)
        chopped = windowed_average(t[25:], v[25:], 4.0)
        overlap = len(chopped.values)
        np.testing.assert_allclose(full.values[-overlap:], chopped.values,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(full.times[-overlap:], chopped.times)

    def test_usage_errors(self):
        t = np.arange(10) * 1.0
        v = np.ones(10)
        with pytest.raises(ValueError):
            windowed_average(t, v, 0.5)  # shorter than spacing
        with pytest.raises(ValueError):
            windowed_average(t, v, 100.0)  # longer than the series
        with pytest.raises(ValueError):
            windowed_average(np.array([0.0, 1.0, 3.0]), np.ones(3), 1.0)


class TestSyncRms:
    def test_identical_trajectories(self):
        run = fake_run([t * 0.1 for t in range(100)])
        assert sync_rms(run, 0.0, 9.9) == 0.0

    def test_constant_offset(self):
        run = fake_run([t * 0.1 for t in range(100)], e=(1.0, 0.0, 0.0, 0.0))
        assert sync_rms(run, 0.0, 9.9) == 1.0

    def test_norm_is_full_state(self):
        run = fake_run([0.0, 1.0], e=(1.0, 1.0, 1.0, 1.0))
        assert sync_rms(run, 0.0, 1.0) == pytest.approx(2.0)

    def test_usage_errors(self):
        run = fake_run([t * 1.0 for t in range(5)])
        with pytest.raises(ValueError):
            sync_rms(run, 3.0, 1.0)
        with pytest.raises(ValueError):
            sync_rms(run, 10.0, 20.0)

    def test_reference_run_regression(self):
        run = run_pair(SimSpec(dt=0.01, t_end=200.0), REFERENCE_CONFIG)
        assert sync_rms(run, 50.0, 100.0) == pytest.approx(
            REFERENCE_SYNC_RMS_50_100, rel=1e-9
        )


class TestSweep:
    def test_single_k_matches_direct_run(self):
        spec = SimSpec(dt=0.01, t_end=200.0, record_every=5)
        (summary,) = sweep_K([5.0], spec, REFERENCE_CONFIG, max_workers=1)
        run = run_pair(spec, REFERENCE_CONFIG)
        t = run.t
        pre = (t >= 50.0) & (t <= 100.0)
        post = (t >= 150.0) & (t <= 200.0)
        assert summary.error is None
        assert summary.pre_adapt_avg_H == pytest.approx(run.H_post[pre].mean(), rel=1e-12)
        assert summary.post_adapt_avg_Hdot == pytest.approx(
            run.Hdot_post[post].mean(), rel=1e-12
        )
        assert summary.pre_adapt_sync_rms == pytest.approx(
            sync_rms(run, 50.0, 100.0), rel=1e-12
        )

    def test_parallel_and_serial_agree(self):
        spec = SimSpec(dt=0.01, t_end=200.0, record_every=10)
        ks = [0.0, 5.0]
        serial = sweep_K(ks, spec, REFERENCE_CONFIG, max_workers=1)
        parallel = sweep_K(ks, spec, REFERENCE_CONFIG, max_workers=2)
        assert serial == parallel

    def test_order_and_duplicates(self):
        spec = SimSpec(dt=0.01, t_end=200.0, record_every=10)
        out = sweep_K([2.0, 0.5, 2.0], spec, REFERENCE_CONFIG, max_workers=2)
        assert [s.K for s in out] == [2.0, 0.5, 2.0]
        assert out[0] == out[2]

    def test_divergent_k_is_contained(self):
        spec = SimSpec(dt=0.01, t_end=200.0, record_every=10)
        out = sweep_K([5.0, 1e6], spec, REFERENCE_CONFIG, max_workers=2)
        assert out[0].error is None
        assert out[1].error is not None and "divergence" in out[1].error
        assert math.isnan(out[1].pre_adapt_avg_H)

    def test_rejects_bad_inputs(self):
        spec = SimSpec(dt=0.01, t_end=200.0)
        with pytest.raises(ValueError):
            sweep_K([-1.0], spec, REFERENCE_CONFIG)
        with pytest.raises(ValueError):
            sweep_K([1.0], spec, REFERENCE_CONFIG, pre_window=(50.0, 160.0))
        with pytest.raises(ValueError):
            sweep_K([1.0], spec, REFERENCE_CONFIG,
                    pre_window=(120.0, 130.0), post_window=(150.0, 200.0))

    def test_summaries_stable_under_sampling_refinement(self):
        coarse = sweep_K([5.0], SimSpec(dt=0.01, t_end=200.0, record_every=10),
                         REFERENCE_CONFIG, max_workers=1)[0]
        fine = sweep_K([5.0], SimSpec(dt=0.01, t_end=200.0, record_every=5),
                       REFERENCE_CONFIG, max_workers=1)[0]
        for name in ("pre_adapt_avg_H", "pre_adapt_avg_Hdot", "post_adapt_avg_H"):
            c, f = getattr(coarse, name), getattr(fine, name)
            assert abs(c - f) < 0.01 * max(1.0, abs(f))

    def test_summary_is_plain_data(self):
        s = SweepSummary(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
        assert s.error is None
        assert s.K == 1.0
