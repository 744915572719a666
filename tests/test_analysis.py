import dataclasses
import math
import tracemalloc
from operator import sub

import numpy as np
import pytest

from hrsync import analysis, sim
from hrsync.analysis import (
    SweepSummary,
    TrailingMean,
    sweep_K,
    sync_rms,
    windowed_average,
)
from hrsync.model import NeuronParams
from hrsync.sim import (
    AdaptationSpec,
    DivergenceError,
    PairConfig,
    SimSpec,
    Trajectory,
    run_isolated,
    run_pair,
)

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
        with pytest.raises(ValueError):
            TrailingMean(10.0, 1e-320, 2)  # window over spacing overflows to inf

    @pytest.mark.parametrize("block", [1, 3, 9, 10, 11, 64, 299])
    def test_blocks_give_the_bits_of_one_pass(self, block):
        # the running sum continues across blocks, so any split is exact
        rng = np.random.default_rng(8)
        t = np.arange(300) * 0.2
        v = rng.normal(size=300) * 10.0 ** rng.integers(-8, 8, size=300)
        whole = windowed_average(t, v, 2.0).values
        mean = TrailingMean(2.0, 0.2, len(v))
        parts = [list(mean.push(v[lo : lo + block])) for lo in range(0, len(v), block)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


#: the receiver's states of a three-row run whose squared error norms are
#: 1e16, 1 and 1
LEFT_TO_RIGHT_POST = np.array([[1e8, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0.0]])


def old_sync_rms(trajectory, t0, t1):
    """The numpy form of :func:`sync_rms` before it read its window by
    bisection, a mask and blocks of 4096 rows: the oracle of its bits."""
    t = trajectory.t
    rows = np.flatnonzero((t >= t0) & (t <= t1))
    total = 0.0
    for block in np.split(rows, range(4096, len(rows), 4096)):
        pre, post = trajectory.pre[block].T.tolist(), trajectory.post[block].T.tolist()
        (x1, y1, z1, w1), (x2, y2, z2, w2) = pre, post
        for e0, e1, e2, e3 in zip(map(sub, x2, x1), map(sub, y2, y1), map(sub, z2, z1),
                                  map(sub, w2, w1)):
            total += e0 ** 2 + e1 ** 2 + e2 ** 2 + e3 ** 2
    return math.sqrt(total / len(rows))


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

    def test_sum_is_left_to_right(self):
        # squared norms 1e16, 1, 1: a plain float sum gives 1e16, the
        # compensated builtin sum() of Python 3.12 on gives 1e16 + 2
        run = dataclasses.replace(fake_run([0.0, 1.0, 2.0]), post=LEFT_TO_RIGHT_POST)
        assert sync_rms(run, 0.0, 2.0) == math.sqrt(1e16 / 3)

    @pytest.mark.parametrize("window", [(5.0, 45.0), (5.005, 44.995), (0.0, 60.0),
                                        (6.995, 7.005)],
                             ids=["on-samples", "between-samples", "every-row", "one-row"])
    def test_pair_trajectory_gives_the_bits_of_the_numpy_form(self, window):
        run = run_pair(SimSpec(dt=0.01, t_end=60.0), REFERENCE_CONFIG)
        assert sync_rms(run, *window) == old_sync_rms(run, *window)

    def test_other_trajectories_give_the_bits_of_the_numpy_form(self):
        run = run_isolated(SimSpec(dt=0.01, t_end=5.0), CANON)
        assert sync_rms(run, 1.0, 4.0) == old_sync_rms(run, 1.0, 4.0)
        run = dataclasses.replace(fake_run([0.0, 1.0, 2.0]), post=LEFT_TO_RIGHT_POST)
        assert sync_rms(run, 0.0, 2.0) == old_sync_rms(run, 0.0, 2.0)

    def test_window_rows_give_the_bits_of_the_numpy_form(self):
        # the sweep's window sink sums the squared errors block by block
        windows = ((5.0, 25.005), (30.0, 60.0))
        spec = SimSpec(dt=0.01, t_end=60.0)
        stats = run_pair(spec, REFERENCE_CONFIG, analysis._WindowStats(*windows)).statistics()
        run = run_pair(spec, REFERENCE_CONFIG)
        assert stats[4:] == [old_sync_rms(run, *window) for window in windows]

    def test_memory_does_not_grow_with_the_window(self):
        # 30001 rows; a copy of one column alone would take 234 KiB. The
        # window sink keeps two floats, 16 bytes, of each row, and no more.
        spec = SimSpec(dt=0.01, t_end=400.0)
        run = run_pair(spec, REFERENCE_CONFIG)
        tracemalloc.start()
        try:
            sync_rms(run, 50.0, 350.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        rows = run_pair(spec, REFERENCE_CONFIG, sim.Collector())
        sink = analysis._WindowStats((50.0, 350.0))
        tracemalloc.start()
        try:
            for lo in range(0, len(rows), sim.BLOCK_ROWS):
                block = rows.table(14)[lo : lo + sim.BLOCK_ROWS]
                sink.put(memoryview(block))
                del block
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [len(kept) for kept in sink.kept[0]] == [30001, 30001]
        assert held < 16 * 30001 * 1.2, held

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


def own_summary(K, spec, config, windows=((50.0, 100.0), (150.0, 200.0))):
    """The sweep's summary of ``K``, from its own whole run."""
    try:
        run = run_pair(spec, dataclasses.replace(config, K=K))
    except DivergenceError as exc:
        nan = float("nan")
        return SweepSummary(K, nan, nan, nan, nan, nan, nan, error=f"divergence at t={exc.t:g}")
    means = [float(getattr(run, name)[(run.t >= lo) & (run.t <= hi)].mean())
             for lo, hi in windows for name in ("H_post", "Hdot_post")]
    return SweepSummary(K, *means, *(sync_rms(run, *window) for window in windows))


class TestSweep:
    def test_single_k_matches_direct_run(self):
        spec = SimSpec(dt=0.01, t_end=200.0, record_every=5)
        (summary,) = sweep_K([5.0], spec, REFERENCE_CONFIG)
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

    def test_window_rows_give_the_bits_of_the_full_run(self, monkeypatch):
        # a sweep keeps only the rows of its two windows, block by block; its
        # statistics are those of the same rows of the whole trajectory, bit
        # for bit, when the windows straddle blocks
        monkeypatch.setattr(sim, "BLOCK_ROWS", 1000)
        spec = SimSpec(dt=0.01, t_end=200.0, record_every=3, transient=20.0)
        (summary,) = sweep_K([5.0], spec, REFERENCE_CONFIG)
        run = run_pair(spec, REFERENCE_CONFIG)
        windows = ((50.0, 100.0), (150.0, 200.0))
        want = [float(getattr(run, name)[(run.t >= lo) & (run.t <= hi)].mean())
                for lo, hi in windows for name in ("H_post", "Hdot_post")]
        want += [sync_rms(run, *window) for window in windows]
        assert [summary.pre_adapt_avg_H, summary.pre_adapt_avg_Hdot,
                summary.post_adapt_avg_H, summary.post_adapt_avg_Hdot,
                summary.pre_adapt_sync_rms, summary.post_adapt_sync_rms] == want

    def test_windows_that_share_a_row_both_read_it(self, monkeypatch):
        # t = 100 ends the pre window and starts the post window; the sweep
        # keeps that row once, and each window's statistics include it
        monkeypatch.setattr(sim, "BLOCK_ROWS", 1000)
        spec = SimSpec(dt=0.01, t_end=200.0, record_every=2)
        windows = ((50.0, 100.0), (100.0, 150.0))
        (summary,) = sweep_K([5.0], spec, REFERENCE_CONFIG,
                             pre_window=windows[0], post_window=windows[1])
        run = run_pair(spec, REFERENCE_CONFIG)
        want = [float(getattr(run, name)[(run.t >= lo) & (run.t <= hi)].mean())
                for lo, hi in windows for name in ("H_post", "Hdot_post")]
        want += [sync_rms(run, *window) for window in windows]
        assert [summary.pre_adapt_avg_H, summary.pre_adapt_avg_Hdot,
                summary.post_adapt_avg_H, summary.post_adapt_avg_Hdot,
                summary.pre_adapt_sync_rms, summary.post_adapt_sync_rms] == want

    def test_parallel_and_serial_agree(self, monkeypatch):
        spec = SimSpec(dt=0.01, t_end=200.0, record_every=10)
        ks = [0.0, 5.0]
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 1)
        serial = sweep_K(ks, spec, REFERENCE_CONFIG)
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
        parallel = sweep_K(ks, spec, REFERENCE_CONFIG)
        assert serial == parallel

    def test_order_and_duplicates(self):
        spec = SimSpec(dt=0.01, t_end=200.0, record_every=10)
        out = sweep_K([2.0, 0.5, 2.0], spec, REFERENCE_CONFIG)
        assert [s.K for s in out] == [2.0, 0.5, 2.0]
        assert out[0] == out[2]

    def test_divergent_k_is_contained(self):
        spec = SimSpec(dt=0.01, t_end=200.0, record_every=10)
        out = sweep_K([5.0, 1e6], spec, REFERENCE_CONFIG)
        assert out[0].error is None
        assert out[1].error is not None and "divergence" in out[1].error
        assert math.isnan(out[1].pre_adapt_avg_H)

    @pytest.mark.parametrize("ks, config", [
        ([5.0, 1e6, 0.5], REFERENCE_CONFIG),
        # a gentle law on the receiver's a drives it through zero at t = 108.25
        # at K = 1, and at K = 2 and 5 not before t = 200
        ([2.0, 1.0, 5.0], PairConfig(pre=CANON, post=QUIET, adaptation=AdaptationSpec(
            target="a", gain=0.2, start_time=100.0))),
    ], ids=["early", "late"])
    def test_one_core_sweep_gives_each_run_of_its_own(self, monkeypatch, ks, config):
        # one integration drives every receiver; each summary, and each
        # divergence, is that of the K's own run, bit for bit
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 1)
        drives = []
        monkeypatch.setattr(analysis, "_drive", lambda *args: drives.append(args)
                            or sim._drive(*args))
        spec = SimSpec(dt=0.01, t_end=200.0, record_every=10)
        got = sweep_K(ks, spec, config)
        assert len(drives) == 1
        assert [repr(dataclasses.astuple(s)) for s in got] == [
            repr(dataclasses.astuple(own_summary(K, spec, config))) for K in ks]
        assert [s.error is None for s in got] == [True, False, True]

    def test_rejects_bad_inputs(self):
        spec = SimSpec(dt=0.01, t_end=200.0)
        with pytest.raises(ValueError):
            sweep_K([-1.0], spec, REFERENCE_CONFIG)
        with pytest.raises(ValueError):
            sweep_K([1.0], spec, REFERENCE_CONFIG, pre_window=(50.0, 160.0))
        with pytest.raises(ValueError):
            sweep_K([1.0], spec, REFERENCE_CONFIG,
                    pre_window=(120.0, 130.0), post_window=(150.0, 200.0))
        # only t = 0 and t = 200 are recorded, so the pre window is empty,
        # whether one integration runs here or one per group in children
        sparse = SimSpec(dt=0.01, t_end=200.0, record_every=20000)
        for ks in ([1.0], [1.0, 2.0]):
            with pytest.raises(ValueError, match=r"no samples in window \[50, 100\]"):
                sweep_K(ks, sparse, REFERENCE_CONFIG)

    def test_k_is_checked_before_any_run(self, monkeypatch):
        def started(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(analysis, "_drive", started)
        monkeypatch.setattr(analysis, "Child", started)
        with pytest.raises(ValueError, match="finite"):
            sweep_K([1.0, float("nan")], SimSpec(dt=0.01, t_end=200.0), REFERENCE_CONFIG)
        # nothing is recorded before t = 120, so the pre window is empty
        late = SimSpec(dt=0.01, t_end=200.0, transient=120.0)
        with pytest.raises(ValueError, match=r"no samples in window \[50, 100\]"):
            sweep_K([1.0, 2.0], late, REFERENCE_CONFIG)

    def test_summaries_stable_under_sampling_refinement(self):
        coarse = sweep_K([5.0], SimSpec(dt=0.01, t_end=200.0, record_every=10),
                         REFERENCE_CONFIG)[0]
        fine = sweep_K([5.0], SimSpec(dt=0.01, t_end=200.0, record_every=5),
                       REFERENCE_CONFIG)[0]
        for name in ("pre_adapt_avg_H", "pre_adapt_avg_Hdot", "post_adapt_avg_H"):
            c, f = getattr(coarse, name), getattr(fine, name)
            assert abs(c - f) < 0.01 * max(1.0, abs(f))

    def test_summary_is_plain_data(self):
        s = SweepSummary(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
        assert s.error is None
        assert s.K == 1.0


def in_windows(t, windows):
    """Which of the times ``t`` lie in one of the closed ``windows``."""
    return np.logical_or.reduce([(t >= lo) & (t <= hi) for lo, hi in windows])


class TestRecordRanges:
    """A sweep computes only the rows inside its windows: the recorded
    steps whose time lies in one of them, each once."""

    # every 3rd step from t = 5.52; t = 6.12, 9.0 and 20.01 are recorded times
    SPEC = SimSpec(dt=0.01, t_end=40.0, record_every=3, transient=5.5)
    ON, OFF = (612 * 0.01, 900 * 0.01), (7.005, 15.0)
    SHARED = ((10.0, 2001 * 0.01), (2001 * 0.01, 30.0))

    @pytest.mark.parametrize("windows", [
        (ON, (25.0, 40.0)),
        (OFF, (20.005, 39.999)),
        SHARED,
        ((1.0, 6.0), (30.0, 31.0)),  # the first starts before the transient
        ((25.0, 35.0), (10.0, 30.0)),  # overlapping, out of order
    ], ids=["on-grid", "off-grid", "shared-row", "transient", "overlap"])
    def test_drive_hands_each_window_row_once(self, windows):
        full = run_pair(self.SPEC, REFERENCE_CONFIG)
        inside = in_windows(full.t, windows)
        recorded = analysis._window_steps(self.SPEC, windows)
        assert all(isinstance(part, range) for part in recorded)
        sink = sim.Collector()
        assert sim._drive(self.SPEC, [REFERENCE_CONFIG], [sink], recorded) == [None]
        table = sink.table(14)
        assert len(sink) == inside.sum() > 0
        assert np.array_equal(Trajectory.of_pair_rows(table).t, full.t[inside])
        assert table.tobytes() == np.column_stack([
            full.t, full.pre, full.post, full.q, full.H_pre, full.Hdot_pre, full.H_post,
            full.Hdot_post])[inside].tobytes()

    @pytest.mark.parametrize("windows", [(ON, (25.0, 40.0)), (OFF, (20.005, 39.999)), SHARED],
                             ids=["on-grid", "off-grid", "shared-row"])
    def test_summary_is_that_of_every_row(self, monkeypatch, windows):
        # small blocks, so the windows straddle them
        monkeypatch.setattr(sim, "BLOCK_ROWS", 100)
        drives = []
        monkeypatch.setattr(analysis, "_drive", lambda *args: drives.append(args)
                            or sim._drive(*args))
        (summary,) = analysis._sweep_group([REFERENCE_CONFIG], self.SPEC, windows)
        every_row = run_pair(self.SPEC, REFERENCE_CONFIG, analysis._WindowStats(*windows))
        want = SweepSummary(REFERENCE_CONFIG.K, *every_row.statistics())
        assert repr(dataclasses.astuple(summary)) == repr(dataclasses.astuple(want))
        # the sink was handed the window rows alone
        ((_, _, (sink,), _),) = drives
        assert len(sink) == in_windows(run_pair(self.SPEC, REFERENCE_CONFIG).t, windows).sum()

    def test_ranges_stay_lazy(self):
        # 10001 rows in the window; the indices are never listed
        spec = SimSpec(dt=0.01, t_end=2000.0)
        (part,) = analysis._window_steps(spec, [(500.0, 600.0)])
        assert part == range(50000, 60001)


def old_trailing_means(blocks, k):
    """The numpy form of :meth:`TrailingMean.push` before it ran on floats:
    the oracle of its bits."""
    sums, out = None, []
    for values in blocks:
        if sums is None:
            sums = np.concatenate(([0.0], np.cumsum(values)))
        else:
            sums = np.concatenate((sums[:-1], np.cumsum(np.concatenate((sums[-1:], values)))))
        out.append((sums[k:] - sums[:-k]) / k)
        sums = sums[-k:]
    return np.concatenate(out)


class TestPureReductionsKeepNumpysBits:
    """The reductions the command line runs without numpy, against numpy."""

    def test_mean_of_every_short_length(self):
        rng = np.random.default_rng(5)
        for n in range(1, 301):
            v = rng.normal(size=n) * 1e3
            assert analysis._mean(v.tolist()) == v.mean(), n

    def test_mean_of_long_series_over_magnitudes(self):
        rng = np.random.default_rng(17)
        for n in [*rng.integers(301, 20002, size=60), 20001, 4096, 8192, 16384]:
            v = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
            assert analysis._mean(v.tolist()) == v.mean(), n

    def test_mean_of_a_masked_strided_column(self):
        # the receiver's energy over a sweep window of a 20001-row table, as
        # the trajectory gave it to np.mean
        run = run_pair(SimSpec(dt=0.01, t_end=200.0), REFERENCE_CONFIG)
        mask = (run.t >= 50.0) & (run.t <= 100.0)
        for column in (run.H_post, run.Hdot_post):
            assert analysis._mean(column[mask].tolist()) == column[mask].mean()

    def test_mean_of_a_strided_memoryview(self):
        # the sweep's window means read the kept rows' columns in place
        rows = run_pair(SimSpec(dt=0.01, t_end=200.0), REFERENCE_CONFIG, sim.Collector())
        table, flat = rows.table(14), memoryview(rows.data)
        for c in (0, 9, 12, 13):
            assert analysis._mean(flat[c::14]) == table[:, c].mean()
            assert analysis._mean(flat[c::14][5000:15001]) == table[5000:15001, c].mean()

    def test_mean_of_signed_zeros(self):
        for v in ([-0.0], [-0.0] * 9, [-0.0] * 200, [1.0, -1.0, -0.0]):
            assert repr(analysis._mean(v)) == repr(float(np.mean(v)))

    @pytest.mark.parametrize("k", [1, 2, 7, 50])
    @pytest.mark.parametrize("block", [1, 3, 8, 49, 64, 500])
    def test_trailing_mean_matches_the_numpy_form(self, k, block):
        rng = np.random.default_rng(k * 1000 + block)
        v = rng.normal(size=500) * 10.0 ** rng.uniform(-8, 8, size=500)
        blocks = [v[lo : lo + block] for lo in range(0, len(v), block)]
        mean = TrailingMean(k * 0.5, 0.5, len(v))
        assert mean.k == k
        got = [x for values in blocks for x in mean.push(values.tolist())]
        assert np.array(got).tobytes() == old_trailing_means(blocks, k).tobytes()
