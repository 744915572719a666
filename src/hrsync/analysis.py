"""Windowed averages, synchronization error metrics, and coupling sweeps.

These are the reductions that turn raw trajectories into the quantities of
interest: trailing moving averages of the energy and its derivative (5 and
10 time-unit windows in the reference experiments), RMS state error, and
per-coupling-strength summaries comparing the regimes before and after the
structural adaptation kicks in.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .sim import BLOCK_ROWS, Collector, DivergenceError, PairConfig, SimSpec, Trajectory, run_pair

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

    def push(self, values: np.ndarray) -> np.ndarray:
        """Means of the windows that end at each of ``values``, in order,
        from the first full window on."""
        k, sums = self.k, self._sums
        if sums is None:
            sums = np.concatenate(([0.0], np.cumsum(values)))
        else:
            # prepend the carried total: adding it after the cumsum would
            # round differently from one sequential sum
            sums = np.concatenate((sums[:-1], np.cumsum(np.concatenate((sums[-1:], values)))))
        self._sums = sums[-k:]
        return (sums[k:] - sums[:-k]) / k


def windowed_average(times, values, window: float) -> WindowedSeries:
    """Trailing moving average over a fixed duration, one value per sample
    once the window is full."""
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
    avg = mean.push(values)
    return WindowedSeries(times=times[mean.k - 1 :].copy(), values=avg, window=window)


def sync_rms(trajectory: Trajectory, t0: float, t1: float) -> float:
    """Root-mean-square of the full-state error norm over ``t in [t0, t1]``.

    The error norm is Euclidean over all four components, so this measures
    identical (full-state) synchrony, not just membrane-potential agreement.
    """
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    t = trajectory.t
    rows = np.flatnonzero((t >= t0) & (t <= t1))
    if not len(rows):
        raise ValueError(f"no samples in window [{t0:g}, {t1:g}]")
    total = 0.0
    # libm pow (``**``) can differ from numpy's square in the last bit, and the
    # summary reaches the CSV: float arithmetic, left to right (builtin sum()
    # compensates from Python 3.12 on), one block of Python floats at a time
    for block in np.split(rows, range(BLOCK_ROWS, len(rows), BLOCK_ROWS)):
        for e0, e1, e2, e3 in (trajectory.post[block] - trajectory.pre[block]).tolist():
            total += e0 ** 2 + e1 ** 2 + e2 ** 2 + e3 ** 2
    return math.sqrt(total / len(rows))


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
    """Sink that keeps only the rows whose time lies in one of ``windows``."""

    def __init__(self, *windows: tuple[float, float]):
        super().__init__()
        self.windows = windows

    def put(self, block: np.ndarray) -> None:
        t = block[:, 0]
        keep = np.zeros(len(t), dtype=bool)
        for lo, hi in self.windows:
            keep |= (t >= lo) & (t <= hi)
        super().put(block[keep])


def _window_mean(t: np.ndarray, v: np.ndarray, window: tuple[float, float]) -> float:
    mask = (t >= window[0]) & (t <= window[1])
    if not mask.any():
        raise ValueError(f"no samples in window [{window[0]:g}, {window[1]:g}]")
    return float(v[mask].mean())


def _sweep_one(
    config: PairConfig,
    spec: SimSpec,
    pre_window: tuple[float, float],
    post_window: tuple[float, float],
) -> SweepSummary:
    try:
        rows = run_pair(spec, config, _WindowRows(pre_window, post_window))
        run = Trajectory.of_pair_rows(rows.table(14))
        t = run.t
        return SweepSummary(
            K=config.K,
            pre_adapt_avg_H=_window_mean(t, run.H_post, pre_window),
            pre_adapt_avg_Hdot=_window_mean(t, run.Hdot_post, pre_window),
            post_adapt_avg_H=_window_mean(t, run.H_post, post_window),
            post_adapt_avg_Hdot=_window_mean(t, run.Hdot_post, post_window),
            pre_adapt_sync_rms=sync_rms(run, *pre_window),
            post_adapt_sync_rms=sync_rms(run, *post_window),
        )
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
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, configs))
    except OSError:
        # process pools can be unavailable in restricted environments
        return [work(c) for c in configs]
