"""Windowed averages, synchronization error metrics, and coupling sweeps.

These are the reductions that turn raw trajectories into the quantities of
interest: trailing moving averages of the energy and its derivative (5 and
10 time-unit windows in the reference experiments), RMS state error, and
per-coupling-strength summaries comparing the regimes before and after the
structural adaptation kicks in.

The reductions that the command line runs, :class:`TrailingMean` and the
window statistics, are plain Python over floats. They keep the bits of
``np.cumsum`` and ``np.mean``: the trailing means continue one sequential
running sum, and a window mean follows the order of the pairwise sum of
``np.mean``. :func:`sync_rms` reads a :class:`Trajectory`'s columns as
``memoryview`` objects, without copying them; only :func:`windowed_average`
takes and gives ``np.ndarray`` objects. ``_squared_errors`` yields each
row's squared state error norm: :func:`sync_rms` totals them left to right,
and ``pair``'s writer takes the root of each.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import partial, reduce
from itertools import accumulate
from operator import add, sub
from typing import TYPE_CHECKING, Sequence

from .sim import (
    Collector,
    DivergenceError,
    PairConfig,
    SimSpec,
    Sink,
    Trajectory,
    run_pair,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SweepSummary",
    "TrailingMean",
    "WindowedSeries",
    "sweep_K",
    "sync_rms",
    "windowed_average",
]


@dataclass(frozen=True)
class WindowedSeries:
    """Moving average of a uniformly sampled series.

    ``times[i]`` is the emission time of ``values[i]``: the average of the
    source over the trailing window ``(times[i] - window, times[i]]``. The
    first value appears once a full window of samples is available, so the
    output is ``window_samples - 1`` entries shorter than the input.
    """

    times: np.ndarray
    values: np.ndarray
    window: float

    def __len__(self) -> int:
        return len(self.values)


class TrailingMean:
    """Trailing mean over ``window`` of a series sampled ``spacing`` apart,
    fed in blocks.

    A window holds the ``k`` grid points in ``(t - window, t]``. The series
    must have at least ``k`` of its ``n`` samples, else ``ValueError``.
    Every block continues one sequential running sum, so the means are
    bit-identical however the series is split, including into one block.
    """

    def __init__(self, window: float, spacing: float, n: int):
        if window < spacing:
            raise ValueError("window must be at least the sample spacing")
        # tolerant of float ratio noise; checked before ceil, which fails on inf
        ratio = window / spacing - 1e-9
        if ratio > n:
            raise ValueError("window longer than the series")
        self.k = math.ceil(ratio)
        self._sums = None  # the last k running sums, the newest last

    def push(self, values) -> list[float]:
        """Means of the windows that end at each of the floats ``values``, in
        order, from the first full window on."""
        k, sums = self.k, self._sums
        if sums is None:
            # the first sum is the first value itself, as in np.cumsum (0.0
            # plus a -0.0 would not be)
            sums = [0.0, *accumulate(values)]
        else:
            # continue from the carried total: adding it after a fresh
            # running sum would round differently from one sequential sum
            sums[-1:] = accumulate(values, initial=sums[-1])
        self._sums = sums[-k:]
        return [(b - a) / k for a, b in zip(sums, sums[k:])]


def windowed_average(times, values, window: float) -> WindowedSeries:
    """Trailing moving average over a fixed duration, one value per sample
    once the window is full."""
    import numpy as np

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError("times and values must be 1-d arrays of equal length")
    if len(times) < 2:
        raise ValueError("need at least two samples")
    spacing = (times[-1] - times[0]) / (len(times) - 1)
    if spacing <= 0:
        raise ValueError("times must be increasing")
    steps = np.diff(times)
    if np.any(np.abs(steps - spacing) > 1e-6 * max(spacing, 1.0)):
        raise ValueError("series must be uniformly sampled")
    mean = TrailingMean(window, spacing, len(values))
    avg = np.array(mean.push(values.tolist()), dtype=float)
    return WindowedSeries(times=times[mean.k - 1 :].copy(), values=avg, window=window)


def _squared_errors(x1, y1, z1, w1, x2, y2, z2, w2):
    """The squared error norm of each row, given the columns of both states
    as iterables of floats. It is the one place that squares the error:
    ``pair``'s ``e_norm`` and ``sweep``'s ``preSync`` and ``postSync`` read it."""
    # libm pow (``**``) can differ from ``np.square`` in the last bit, and the
    # norms reach the CSVs
    for e0, e1, e2, e3 in zip(map(sub, x2, x1), map(sub, y2, y1), map(sub, z2, z1),
                              map(sub, w2, w1)):
        yield e0 ** 2 + e1 ** 2 + e2 ** 2 + e3 ** 2


def _window(run: Trajectory | _WindowRows, t0: float, t1: float) -> list[memoryview]:
    """The columns ``t, *pre, *post, H_post, Hdot_post`` of the rows of
    ``run`` with ``t0 <= t <= t1``, as 1-D float ``memoryview`` objects that
    copy nothing. The times increase, so the rows are one run, found by
    bisection."""
    if isinstance(run, _WindowRows):
        flat = memoryview(run.data)
        columns = [flat[c::14] for c in (*range(9), 12, 13)]
    else:
        columns = [memoryview(a) for a in (run.t, *run.pre.T, *run.post.T, run.H_post,
                                           run.Hdot_post)]
    lo, hi = bisect_left(columns[0], t0), bisect_right(columns[0], t1)
    if lo == hi:
        raise ValueError(f"no samples in window [{t0:g}, {t1:g}]")
    return [column[lo:hi] for column in columns]


def sync_rms(trajectory: Trajectory, t0: float, t1: float) -> float:
    """Root-mean-square of the full-state error norm over ``t in [t0, t1]``.

    The error norm is Euclidean over all four components, so this measures
    identical (full-state) synchrony, not just membrane-potential agreement.
    The trajectory's times must increase, as every run's do.
    """
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    t, *states, _, _ = _window(trajectory, t0, t1)
    # float arithmetic, left to right: builtin sum() compensates from Python 3.12 on
    return math.sqrt(reduce(add, _squared_errors(*states), 0.0) / len(t))


@dataclass(frozen=True)
class SweepSummary:
    """Receiving-neuron statistics of one coupled run at coupling ``K``.

    Window means of the energy and energy derivative, and the RMS state
    error, over a window before and one after the adaptation start. A run
    that diverged carries the reason in ``error`` and NaN statistics.
    """

    K: float
    pre_adapt_avg_H: float
    pre_adapt_avg_Hdot: float
    post_adapt_avg_H: float
    post_adapt_avg_Hdot: float
    pre_adapt_sync_rms: float
    post_adapt_sync_rms: float
    error: str | None = None


class _WindowRows(Collector):
    """Sink that keeps only the rows whose time lies in one of ``windows``,
    which are in time order."""

    def __init__(self, *windows: tuple[float, float]):
        super().__init__()
        self.windows = windows

    def put(self, block: memoryview) -> None:
        # times increase, so each window's rows are one run of the block
        t = Sink.column(block, 0)
        end = 0
        for lo, hi in self.windows:
            first = max(bisect_left(t, lo), end)  # a row on two windows is kept once
            end = max(bisect_right(t, hi), first)
            if end > first:
                super().put(block[first:end])


def _pairwise_sum(values: Sequence[float]) -> float:
    """Sum of ``values`` in the order of ``np.add.reduce``'s pairwise
    summation: eight accumulators over up to 128 values, and above that the
    sums of two halves split at a multiple of 8."""
    n = len(values)
    if n < 8:
        return reduce(add, values)
    if n <= 128:
        m = n - n % 8
        r = [reduce(add, values[j + 8 : m : 8], values[j]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[m:], total)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _mean(values: Sequence[float]) -> float:
    """``np.mean`` of the floats ``values``, bit for bit: it adds their
    pairwise sum to the identity 0.0, then divides by the count."""
    return (0.0 + _pairwise_sum(values)) / len(values)


def _sweep_one(
    config: PairConfig,
    spec: SimSpec,
    pre_window: tuple[float, float],
    post_window: tuple[float, float],
) -> SweepSummary:
    try:
        rows = run_pair(spec, config, _WindowRows(pre_window, post_window))
        means = [_mean(column) for window in (pre_window, post_window)
                 for column in _window(rows, *window)[9:]]
        # sync_rms follows the run: perfbench's tracer writes a pool worker's
        # sample count only when a traced call ends after the run's
        return SweepSummary(config.K, *means, sync_rms(rows, *pre_window),
                            sync_rms(rows, *post_window))
    except DivergenceError as exc:
        nan = float("nan")
        return SweepSummary(config.K, nan, nan, nan, nan, nan, nan,
                            error=f"divergence at t={exc.t:g}")


def sweep_K(
    k_values: Sequence[float],
    spec: SimSpec,
    config: PairConfig,
    *,
    pre_window: tuple[float, float] = (50.0, 100.0),
    post_window: tuple[float, float] = (150.0, 200.0),
) -> list[SweepSummary]:
    """One coupled run per coupling strength, summarized per window.

    Every run's :class:`PairConfig`, which checks its ``K``, is built before
    any run starts. Runs are independent and execute on a process pool of
    one worker per core, and at most one per run; a single run or core runs
    in process. Output order matches the input order. A diverging run yields
    a summary with its ``error`` field set; the other runs are unaffected.
    """
    configs = [replace(config, K=float(K)) for K in k_values]
    if not pre_window[0] < pre_window[1] or not post_window[0] < post_window[1]:
        raise ValueError("windows must be nonempty intervals")
    if pre_window[1] > post_window[0]:
        raise ValueError("pre and post windows must be disjoint, pre first")
    if config.adaptation is not None:
        start = config.adaptation.start_time
        if not (pre_window[1] <= start <= post_window[0]):
            raise ValueError(
                "adaptation start must separate the pre and post windows"
            )

    work = partial(_sweep_one, spec=spec, pre_window=pre_window, post_window=post_window)
    # a forked pool starts all its workers up front
    workers = min(os.cpu_count() or 1, len(configs))
    if workers <= 1:
        return [work(c) for c in configs]
    from concurrent.futures import ProcessPoolExecutor  # here, since no other command needs it

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, configs))
    except OSError:
        # process pools can be unavailable in restricted environments
        return [work(c) for c in configs]
