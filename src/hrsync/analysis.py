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

from .sim import DivergenceError, PairConfig, SimSpec, Trajectory, run_pair

__all__ = [
    "SweepSummary",
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


def _window_samples(window: float, spacing: float) -> int:
    # number of grid points in (t - window, t]; tolerant of float ratio noise
    return math.ceil(window / spacing - 1e-9)


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
    if window < spacing:
        raise ValueError("window must be at least the sample spacing")
    k = _window_samples(window, spacing)
    if k > len(values):
        raise ValueError("window longer than the series")
    csum = np.concatenate(([0.0], np.cumsum(values)))
    avg = (csum[k:] - csum[:-k]) / k
    return WindowedSeries(times=times[k - 1 :].copy(), values=avg, window=window)


def sync_rms(trajectory: Trajectory, t0: float, t1: float) -> float:
    """Root-mean-square of the full-state error norm over ``t in [t0, t1]``.

    The error norm is Euclidean over all four components, so this measures
    identical (full-state) synchrony, not just membrane-potential agreement.
    """
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    t = trajectory.t
    mask = (t >= t0) & (t <= t1)
    if not mask.any():
        raise ValueError(f"no samples in window [{t0:g}, {t1:g}]")
    # Python's ``**`` calls libm pow, which can differ from numpy's square in
    # the last bit, and the summary is written to CSV: keep float arithmetic.
    e = (trajectory.post[mask] - trajectory.pre[mask]).tolist()
    sq = [e0 ** 2 + e1 ** 2 + e2 ** 2 + e3 ** 2 for e0, e1, e2, e3 in e]
    return math.sqrt(sum(sq) / len(sq))


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


def _window_mean(t: np.ndarray, v: np.ndarray, window: tuple[float, float]) -> float:
    mask = (t >= window[0]) & (t <= window[1])
    if not mask.any():
        raise ValueError(f"no samples in window [{window[0]:g}, {window[1]:g}]")
    return float(v[mask].mean())


def _sweep_one(
    K: float,
    spec: SimSpec,
    config: PairConfig,
    pre_window: tuple[float, float],
    post_window: tuple[float, float],
) -> SweepSummary:
    try:
        run = run_pair(spec, replace(config, K=K))
        t = run.t
        return SweepSummary(
            K=K,
            pre_adapt_avg_H=_window_mean(t, run.H_post, pre_window),
            pre_adapt_avg_Hdot=_window_mean(t, run.Hdot_post, pre_window),
            post_adapt_avg_H=_window_mean(t, run.H_post, post_window),
            post_adapt_avg_Hdot=_window_mean(t, run.Hdot_post, post_window),
            pre_adapt_sync_rms=sync_rms(run, *pre_window),
            post_adapt_sync_rms=sync_rms(run, *post_window),
        )
    except DivergenceError as exc:
        nan = float("nan")
        return SweepSummary(K, nan, nan, nan, nan, nan, nan, error=f"divergence at t={exc.t:g}")


def sweep_K(
    k_values: Sequence[float],
    spec: SimSpec,
    config: PairConfig,
    *,
    pre_window: tuple[float, float] = (50.0, 100.0),
    post_window: tuple[float, float] = (150.0, 200.0),
    max_workers: int | None = None,
) -> list[SweepSummary]:
    """One coupled run per coupling strength, summarized per window.

    Runs are independent and execute on a process pool of at most one worker
    per run when ``max_workers`` allows (``None`` uses all cores; ``0``/``1``
    force serial execution, and so does a single run).
    Output order matches the input order. A diverging run yields a summary
    with its ``error`` field set; the other runs are unaffected.
    """
    k_values = [float(K) for K in k_values]
    if not all(math.isfinite(K) and K >= 0 for K in k_values):
        raise ValueError("all coupling strengths must be finite and >= 0")
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

    work = partial(
        _sweep_one,
        spec=spec,
        config=config,
        pre_window=pre_window,
        post_window=post_window,
    )
    # a forked pool starts all its workers up front
    workers = min((os.cpu_count() or 1) if max_workers is None else max_workers, len(k_values))
    if workers <= 1:
        return [work(K) for K in k_values]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, k_values))
    except OSError:
        # process pools can be unavailable in restricted environments
        return [work(K) for K in k_values]
