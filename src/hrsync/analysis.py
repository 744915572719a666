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
row's squared state error norm: :func:`sync_rms` and the sweep's window sink
total them left to right, and ``pair``'s writer takes the root of each.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, replace
from functools import partial, reduce
from itertools import accumulate, chain, islice, repeat
from operator import add, mul, sub, truediv
from typing import TYPE_CHECKING, Iterator, Sequence

from . import fork
from .sim import PairConfig, SimSpec, Sink, Trajectory, _drive

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
    Only the last ``k`` running sums are carried from block to block.
    """

    def __init__(self, window: float, spacing: float, n: int):
        if window < spacing:
            raise ValueError("window must be at least the sample spacing")
        # tolerant of float ratio noise; checked before ceil, which fails on inf
        ratio = window / spacing - 1e-9
        if ratio > n:
            raise ValueError("window longer than the series")
        self.k = math.ceil(ratio)
        self.fed = 0  # samples pushed so far
        self._sums: Sequence[float] = (0.0,)  # the last k running sums, the newest last

    def count(self, n: int) -> int:
        """The number of means of a series of ``n`` samples: one per window,
        from the first full one on."""
        return n - self.k + 1

    def push(self, values: Sequence[float]) -> Iterator[float]:
        """Means of the windows that end at each of the floats ``values``, in
        order, from the first full window on, as an iterator that holds no
        more than the carried sums: it adds the running sum again, with the
        same bits, rather than keep it."""
        k, carried, fresh = self.k, self._sums, self.fed == 0

        def sums():
            if fresh:
                # the first sum is the first value itself, as in np.cumsum
                # (0.0 plus a -0.0 would not be)
                return chain(carried, accumulate(values))
            # continue from the carried total: adding it after a fresh
            # running sum would round differently from one sequential sum
            return chain(carried, islice(accumulate(values, initial=carried[-1]), 1, None))

        self._sums = deque(sums(), maxlen=k)
        self.fed += len(values)
        return map(truediv, map(sub, islice(sums(), k, None), sums()), repeat(k))


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
    avg = np.array(list(mean.push(values.tolist())), dtype=float)
    return WindowedSeries(times=times[len(times) - len(avg) :].copy(), values=avg, window=window)


def _squared_errors(x1, y1, z1, w1, x2, y2, z2, w2):
    """The squared error norm of each row, given the columns of both states
    as iterables of floats. It is the one place that squares the error:
    ``pair``'s ``e_norm`` and ``sweep``'s ``preSync`` and ``postSync`` read it."""
    # libm pow (``**``) can differ from ``np.square`` in the last bit, and the
    # norms reach the CSVs
    for e0, e1, e2, e3 in zip(map(sub, x2, x1), map(sub, y2, y1), map(sub, z2, z1),
                              map(sub, w2, w1)):
        yield e0 ** 2 + e1 ** 2 + e2 ** 2 + e3 ** 2


def sync_rms(trajectory: Trajectory, t0: float, t1: float) -> float:
    """Root-mean-square of the full-state error norm over ``t in [t0, t1]``.

    The error norm is Euclidean over all four components, so this measures
    identical (full-state) synchrony, not just membrane-potential agreement.
    The trajectory's times must increase, as every run's do.
    """
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    # the times increase, so the window's rows are one run, found by bisection
    t = memoryview(trajectory.t)
    lo, hi = bisect_left(t, t0), bisect_right(t, t1)
    if lo == hi:
        raise ValueError(f"no samples in window [{t0:g}, {t1:g}]")
    # memoryview columns copy nothing
    states = [memoryview(a)[lo:hi] for a in (*trajectory.pre.T, *trajectory.post.T)]
    # float arithmetic, left to right: builtin sum() compensates from Python 3.12 on
    return math.sqrt(reduce(add, _squared_errors(*states), 0.0) / (hi - lo))


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


class _WindowStats(Sink):
    """Sink of one receiver's pair rows that keeps, for each of ``windows``
    (closed intervals of time), only what the sweep reads of its rows: their
    ``H_post`` and ``Hdot_post``, 16 bytes a row, for :func:`_mean`, which
    needs all of a window's values at once, and the left-to-right running
    sum of their squared state errors. A row on the boundary of two windows
    counts in both."""

    def __init__(self, *windows: tuple[float, float]):
        self.windows = windows
        self.kept = [(array("d"), array("d")) for _ in windows]
        self.squares = [0.0] * len(windows)

    def put(self, block: memoryview) -> None:
        # times increase, so each window's rows are one run of the block
        t = Sink.column(block, 0)
        for w, (lo, hi) in enumerate(self.windows):
            first, end = bisect_left(t, lo), bisect_right(t, hi)
            if first < end:
                *states, H, Hdot = (Sink.column(block, c)[first:end]
                                    for c in (*range(1, 9), 12, 13))
                self.squares[w] = reduce(add, _squared_errors(*states), self.squares[w])
                for kept, column in zip(self.kept[w], (H, Hdot)):
                    kept.extend(column)

    def statistics(self) -> list[float]:
        """Each window's mean ``H_post`` and ``Hdot_post``, in window order,
        then each window's RMS state error: the bits that :func:`_mean` and
        :func:`sync_rms` give over the window's rows of the whole run."""
        means, rms = [], []
        for (lo, hi), kept, total in zip(self.windows, self.kept, self.squares):
            if not kept[0]:
                raise ValueError(f"no samples in window [{lo:g}, {hi:g}]")
            means += [_mean(memoryview(values)) for values in kept]
            rms.append(math.sqrt(total / len(kept[0])))
        return means + rms


def _window_steps(spec: SimSpec, windows) -> list[range]:
    """The recorded steps ``i`` of ``spec`` whose time ``t = i*dt`` (the
    time :meth:`_WindowStats.put` bisects by) lies in one of ``windows``, as
    sorted, disjoint ranges: windows that touch or overlap are joined, so a
    row they share is computed once. An empty window raises ValueError."""
    steps, time = spec.recorded_steps, partial(mul, spec.dt)  # dt*i == i*dt
    union: list[range] = []
    for lo, hi in sorted(windows):
        part = steps[bisect_left(steps, lo, key=time) : bisect_right(steps, hi, key=time)]
        if not part:
            raise ValueError(f"no samples in window [{lo:g}, {hi:g}]")
        if union and part.start <= union[-1].stop:  # a slice stops a step past its end
            union[-1] = range(union[-1].start, max(union[-1].stop, part.stop), part.step)
        else:
            union.append(part)
    return union


def _sweep_group(configs: Sequence[PairConfig], spec: SimSpec,
                 windows: tuple[tuple[float, float], ...]) -> list[SweepSummary]:
    """The summaries of ``configs``, which differ only in ``K``, from one
    integration of their shared sender that drives every receiver and
    computes only the rows inside ``windows``."""
    sinks = [_WindowStats(*windows) for _ in configs]
    recorded = _window_steps(spec, windows)
    summaries = []
    for config, sink, error in zip(configs, sinks, _drive(spec, configs, sinks, recorded)):
        if error is None:
            summaries.append(SweepSummary(config.K, *sink.statistics()))
        else:
            nan = float("nan")
            summaries.append(SweepSummary(config.K, nan, nan, nan, nan, nan, nan,
                                          error=f"divergence at t={error.t:g}"))
    return summaries


def sweep_K(
    k_values: Sequence[float],
    spec: SimSpec,
    config: PairConfig,
    *,
    pre_window: tuple[float, float] = (50.0, 100.0),
    post_window: tuple[float, float] = (150.0, 200.0),
) -> list[SweepSummary]:
    """One coupled run per coupling strength, summarized per window.

    ``k_values`` must not be empty. Every run's :class:`PairConfig`, which
    checks its ``K``, is built, and every window is checked to hold a
    recorded step, before any run starts. A run computes only the rows
    inside its windows. The runs share their sender, so the K values are
    split into ``min(fork.cores(), len(k_values))`` groups of consecutive
    values, and one integration of the sender drives every receiver of a
    group. Each group runs in its own forked child, all started at once,
    which sends back its summaries, or the exception that stopped it. A
    single group (one K, or one CPU this process may use) runs in process,
    and so does each group whose child cannot start
    (:class:`hrsync.fork.Child` raises ``OSError``), before any child is
    read. The children are then read in group order; none waits on another.
    Output order matches the input order. A diverging run yields a summary
    with its ``error`` field set; the other runs are unaffected and keep the
    bits of a run of their own. On any error here, every live child is
    killed and reaped.
    """
    configs = [replace(config, K=float(K)) for K in k_values]
    if not configs:
        raise ValueError("the K list is empty: a sweep needs at least one K")
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
    _window_steps(spec, (pre_window, post_window))

    work = partial(_sweep_group, spec=spec, windows=(pre_window, post_window))
    groups = min(fork.cores(), len(configs))
    if groups <= 1:
        return work(configs)
    cuts = [len(configs) * g // groups for g in range(groups + 1)]
    parts = [configs[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    children: list[fork.Child | None] = []  # None: the group's child could not start
    try:
        for part in parts:
            try:
                children.append(fork.Child(lambda send, read, part=part: work(part)))
            except OSError:  # no os.fork, or no process or pipe to spare: run it here
                children.append(None)
        done = [work(part) if child is None else None for part, child in zip(parts, children)]
        return [summary for child, summaries in zip(children, done)
                for summary in (summaries if child is None else child.result())]
    finally:
        for child in filter(None, children):
            child.close(kill=True)
