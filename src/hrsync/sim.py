"""Fixed-step integration of one neuron or a unidirectionally coupled pair.

The presynaptic (sending) neuron is autonomous; the postsynaptic (receiving)
neuron feels an electrical coupling term ``K*(x_pre - x_post)`` on its first
equation only. An optional adaptive law steers one structural parameter of
the receiving neuron (by default its external current) so the pair becomes
structurally identical:

    dq/dt = -gain * sum_l  d f_l / d q |_(pre state, pre params) * e_l,
    e = post_state - pre_state,

which for the external current reduces to ``dI2/dt = -gain*xi*(x2 - x1)``.

The adapted parameter is integrated as a ninth state component by the same
Runge-Kutta step as the neurons, so there is no operator-splitting error.
Activation is decided once per step from the step's left endpoint; no
sub-step event location is attempted (the switch-time error is O(dt)).

Every target takes the same path, and so do the lone neuron and the pair:
a sender that drives N >= 0 receivers, N = 0 for :func:`run_isolated` and
N = 1 for :func:`run_pair`. At the start of a run, the RK4 step, the
recorded sample rows and the divergence guard are generated as straight-line
Python from the expression tables :data:`hrsync.model.FIELD`,
:data:`hrsync.model.PAIR`, :data:`hrsync.model.SENSITIVITY_EXPR` and
:data:`hrsync.energy.ENERGY`, and compiled (:mod:`hrsync.codegen`). The
state is the sender's 4 components, then each receiver's 4 and its live
``q``; receiver ``j``'s equations are the tables' rows with its own
suffix, ``K``, gain and parameters, and read ``q`` in place of the adapted
parameter. Since ``d f / d q`` has a single nonzero row, ``PAIR``'s law is
``dq/dt = -gain*s*e_row`` with ``(row, s)`` from the sensitivity table. The
parameters, and every constant that ``q`` does not enter, are bound once per
run. Each generated step agrees bit for bit with a hand-written RK4 step over
the per-point kernels, which the tests keep as its reference, and each
receiver's rows are those of its own pair run whatever the other receivers
do. The energy divides by ``a`` and ``m*s``, so a run that adapts ``a``,
``m`` or ``s`` stops with :class:`DivergenceError` once that parameter
reaches zero or changes sign. Of several receivers, one that diverges stops
alone, and a sender that diverges stops them all.

One integration loop computes the rows of the recorded steps alone, which
it takes as ranges of step indices, and emits them as flat blocks of floats,
one series of blocks per sink. :func:`_stream` hands each block to a
:class:`Sink` as a read-only 2-D ``memoryview`` of its rows, so a caller
that formats or reduces each block holds no more than one block of the run,
and imports no numpy. Without a sink, a :class:`Collector` keeps every row
and the run returns a columnar :class:`Trajectory` of numpy arrays; only
such runs import numpy. Runs are deterministic: identical specs and configs
produce bit-identical rows on a given build. When the process may use two
or more CPUs (:func:`hrsync.fork.cores`), a run of several blocks with a
sink other than a :class:`Collector` integrates in a forked child while
the caller's sink formats the blocks, and the child formats the blocks that
the caller falls behind on with its own copy of a sink that can
(:attr:`Sink.text`); the rows, errors and bytes are the same as in process.
The coupling sweep
(:func:`hrsync.analysis.sweep_K`) integrates several receivers at once, in
process, through ``_drive``, and records only the steps inside its windows.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import astuple, dataclass, fields
from itertools import chain, compress
from typing import TYPE_CHECKING

from . import fork
from .codegen import compile_kernel, rename
from .energy import ENERGY, POLE_PARAMS
from .model import (
    ADAPTABLE_PARAMS,
    FIELD,
    PAIR,
    PARAM_INDEX,
    SENSITIVITY_EXPR,
    NeuronParams,
    NeuronState,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AdaptationSpec",
    "Collector",
    "DivergenceError",
    "PairConfig",
    "SimSpec",
    "Sink",
    "Trajectory",
    "run_isolated",
    "run_pair",
]

#: Trajectories of the canonical model stay within a few units of the origin;
#: reaching this bound means the integration has left the physical regime.
DIVERGENCE_BOUND = 100.0

#: Rows per block that a run hands its sink, so a sink that formats or
#: reduces each block holds no more than this many rows of the run. A forked
#: run's caller waits for the first block before it can format anything, and
#: 512 pair rows take the child a few ms to integrate.
BLOCK_ROWS = 512

class DivergenceError(RuntimeError):
    """Raised when a trajectory leaves the boundedness guard or turns non-finite."""

    def __init__(self, t: float, message: str | None = None):
        self.t = t
        super().__init__(message or f"trajectory diverged at t={t:g}")

    def __reduce__(self):
        return type(self), (self.t, str(self))


@dataclass(frozen=True)
class AdaptationSpec:
    """Which postsynaptic parameter to adapt, with what gain, from when."""

    target: str = "I"
    gain: float = 1.0
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.target not in ADAPTABLE_PARAMS:
            raise ValueError(
                f"adaptation target {self.target!r} must be one of {ADAPTABLE_PARAMS}"
            )
        if not (math.isfinite(self.gain) and self.gain > 0):
            raise ValueError("adaptation gain must be finite and positive")
        if not (math.isfinite(self.start_time) and self.start_time >= 0):
            raise ValueError("adaptation start_time must be finite and >= 0")


@dataclass(frozen=True)
class PairConfig:
    """Drive-response pair: parameters for both neurons plus the coupling.

    Only the postsynaptic neuron is coupled (its coupling gain is ``K``); the
    presynaptic gain is structurally zero, there is no field for it.
    """

    pre: NeuronParams
    post: NeuronParams
    K: float = 0.0
    adaptation: AdaptationSpec | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.K) and self.K >= 0):
            raise ValueError("coupling strength K must be finite and >= 0")


@dataclass(frozen=True)
class SimSpec:
    """Integration grid and recording policy.

    ``t_end`` must be an integer number of steps; samples are kept every
    ``record_every`` steps once ``t >= transient``.
    """

    dt: float = 0.01
    t_end: float = 200.0
    record_every: int = 1
    initial_pre: NeuronState = NeuronState(0.1, 0.2, 0.3, 0.1)
    initial_post: NeuronState = NeuronState(0.0, 0.0, 0.0, 0.0)
    transient: float = 0.0

    def __post_init__(self) -> None:
        for name in ("dt", "t_end", "transient"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (self.t_end > self.transient >= 0):
            raise ValueError("need t_end > transient >= 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError("the step count t_end/dt must be finite")
        steps = round(self.t_end / self.dt)
        if steps < 1 or abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def recorded_steps(self) -> range:
        """Indices ``i`` of the recorded instants ``t = i*dt``: every
        ``record_every``-th step from the first at or past ``transient``."""
        rec, dt, start = self.record_every, self.dt, self.transient - 1e-12
        first = max(0, math.floor(start / dt / rec) - 1) * rec
        while first * dt < start:
            first += rec
        return range(first, self.n_steps + 1, rec)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded instants of a run, one read-only column per quantity.

    ``t`` holds the sample times; ``pre`` and ``post`` are ``(n, 4)`` state
    columns in (x, y, z, w) order. ``q`` is the live value of the adapted
    parameter (the postsynaptic external current unless another target was
    configured). ``H_*`` and ``Hdot_*`` are each neuron's energy and energy
    derivative. ``len()`` is the number of samples, and two trajectories are
    equal when every column is. The columns are numpy arrays.
    """

    t: np.ndarray
    pre: np.ndarray
    post: np.ndarray
    q: np.ndarray
    H_pre: np.ndarray
    Hdot_pre: np.ndarray
    H_post: np.ndarray
    Hdot_post: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        import numpy as np

        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    @property
    def e(self) -> np.ndarray:
        """State error ``post - pre``, one ``(n, 4)`` row per sample."""
        return self.post - self.pre

    @classmethod
    def of_pair_rows(cls, table: np.ndarray) -> "Trajectory":
        """Columns of a pair run's ``(n, 14)`` rows, without copying."""
        return cls(
            t=table[:, 0],
            pre=table[:, 1:5],
            post=table[:, 5:9],
            q=table[:, 9],
            H_pre=table[:, 10],
            Hdot_pre=table[:, 11],
            H_post=table[:, 12],
            Hdot_post=table[:, 13],
        )


class Sink:
    """Receiver of a run's recorded rows, in time order.

    The run calls :meth:`put` once per :data:`BLOCK_ROWS` recorded rows (the
    last block may be shorter), as soon as each block is full, with a fresh
    read-only ``memoryview`` of float64, cast to shape ``(n, width)``: its
    ``len()`` is ``n``, :meth:`rows` gives the rows one at a time, and
    :meth:`column` gives a column. A row is the run's sample: ``(t, x, y, z, w, H, Hdot)`` for a
    lone neuron, ``(t, *pre, *post, q, H_pre, Hdot_pre, H_post,
    Hdot_post)`` for a pair. A run computes rows at its recorded steps
    alone: ``SimSpec.recorded_steps``, or, in the sweep, those of them
    inside its windows. When one sender drives several receivers, each
    receiver has its own sink, and they share the budget: each gets blocks
    of ``BLOCK_ROWS // N`` rows for N receivers, so together they hold no
    more rows at once than one run. ``len()`` is the number of rows handed
    over so far, counted in ``handed``. A run that stops with
    :class:`DivergenceError` does not hand over its last partial block. The
    rows are counted, and :meth:`put` is called, in the caller's process.

    A sink that formats each block lets a forked run's child, which holds a
    copy of it, format the blocks the caller falls behind on (see
    :func:`_stream`): its ``text(block)`` returns the bytes :meth:`put`
    would write for ``block``, one item per output, and advances what the
    sink carries from block to block as :meth:`carry` does; ``put(block,
    *texts)`` writes those bytes in place of formatting. ``text`` is None on
    a sink that does not format.
    """

    handed = 0
    text = None

    def carry(self, block: memoryview) -> None:
        """Advance what the sink carries from block to block, as :meth:`put`
        would, without formatting; a sink that carries nothing does nothing."""

    def __len__(self) -> int:
        return self.handed

    def put(self, block: memoryview) -> None:
        raise NotImplementedError

    @staticmethod
    def rows(block: memoryview):
        """The rows of ``block``, one tuple of floats at a time, from one
        iterator over its floats, so no more than a row is built at once."""
        return zip(*[iter(block.cast("B").cast("d"))] * block.shape[1])

    @staticmethod
    def column(block: memoryview, c: int) -> memoryview:
        """Column ``c`` of ``block`` as a strided 1-D view of its floats,
        copying nothing."""
        return block.cast("B").cast("d")[c :: block.shape[1]]


class Collector(Sink):
    """Sink that keeps every row it is handed, in one growing buffer."""

    def __init__(self) -> None:
        self.data = array("d")

    def put(self, block: memoryview) -> None:
        self.data.frombytes(block.cast("B"))

    def table(self, width: int) -> np.ndarray:
        """The kept rows as one read-only ``(n, width)`` numpy array, without
        copying."""
        import numpy as np

        table = np.frombuffer(self.data, dtype=float).reshape(-1, width)
        table.flags.writeable = False
        return table


def _target(config: PairConfig) -> str:
    """The receiver's adapted parameter; ``I`` when nothing is adapted."""
    return config.adaptation.target if config.adaptation else "I"


def _names(j: int, state, derivative=(), live: dict | None = None) -> dict:
    """Local names for neuron ``j`` in generated code: the table's state
    symbols become ``state``, ``dx``..``dw`` become ``derivative``, the
    parameters in ``live`` become the local it maps them to, and the other
    parameters and table locals take the suffix ``_j``."""
    names = {name: f"{name}_{j}" for name in (*PARAM_INDEX, *dict(FIELD), *dict(ENERGY))}
    names.update(zip("xyzw", state))
    names.update(zip(("dx", "dy", "dz", "dw"), derivative))
    names.update(live or {})
    return names


def _renamed(table, names: dict) -> list[tuple[str, str]]:
    return [(rename(local, names), rename(expr, names)) for local, expr in table]


def _rk4_kernel(name: str, n: int, derivative, env: dict):
    """One RK4 step over ``S = (v0, ..., v{n-1})``, compiled as straight-line
    code. ``derivative(inputs, outputs)`` gives the assignments of the
    derivative at a stage. Each component follows the operation order of
    ``S + (dt/6)*(k1 + 2*(k2 + k3) + k4)`` on float64 arrays."""
    v = [f"v{j}" for j in range(n)]
    body = [(", ".join(v), "S")]
    ks = []
    for stage, scale in enumerate(("", "half", "half", "dt"), 1):
        inputs = v
        if scale:
            inputs = [f"u{j}" for j in range(n)]
            body += [(u, f"{s} + {scale}*{k}") for u, s, k in zip(inputs, v, ks[-1])]
        ks.append([f"k{stage}_{j}" for j in range(n)])
        body += derivative(inputs, ks[-1])
    result = ", ".join(
        f"{s} + sixth*({a} + 2.0*({b} + {c}) + {d})" for s, *(a, b, c, d) in zip(v, *ks)
    )
    half, sixth = 0.5 * env["dt"], env["dt"] / 6.0
    return compile_kernel(name, "S", body, f"({result},)", {**env, "half": half, "sixth": sixth})


def _bind(j: int, P) -> dict:
    return {f"{name}_{j}": value for name, value in zip(PARAM_INDEX, P)}


def _kernels(pre: NeuronParams, receivers: Sequence[PairConfig], dt: float):
    """``(idle, active, row, inside)`` of a sender with parameters ``pre``
    that drives ``receivers`` (none for a lone neuron), generated from the
    tables.

    The state ``S`` holds the sender's 4 components, then 5 per receiver:
    its 4 and the live ``q`` of its adapted parameter. ``idle(S)`` and
    ``active(S)`` are one RK4 step of the whole state without and with the
    receivers' laws: each neuron's :data:`FIELD`, with the live ``q`` in
    place of a receiver's adapted target, then each receiver's :data:`PAIR`
    rows, its names renamed with its own suffix and its own ``K``, gain and
    parameters bound. ``row(t, S, puts)`` hands one recorded row per sink to
    ``puts[j]``: the lone neuron's ``(t, x, y, z, w, H, Hdot)``, or receiver
    ``j``'s pair sample ``(t, *pre, *post, q, H_pre, Hdot_pre, H_post,
    Hdot_post)``. ``inside(S)`` is true when every neuron's state lies
    inside the divergence bound, every ``q`` is finite and every adapted
    ``a``, ``m`` or ``s`` keeps the sign it starts with; false for NaN.
    """
    n = 4 + 5 * len(receivers)
    offsets = range(4, n, 5)
    v = [f"v{i}" for i in range(n)]
    env = {**_bind(0, astuple(pre)), "dt": dt, "bound": DIVERGENCE_BOUND, "inf": math.inf}
    tests = [f"-bound < {x} < bound" for x in v[:4]]
    energies = _renamed(ENERGY, _names(0, v[:4]))
    rows = []
    for j, (config, o) in enumerate(zip(receivers, offsets), 1):
        adapt, target = config.adaptation, _target(config)
        env.update(_bind(j, astuple(config.post)))
        env.update({f"K_{j}": config.K, f"neg_gain_{j}": -adapt.gain if adapt else 0.0,
                    f"sign_{j}": getattr(config.post, target)})
        tests += [f"-bound < {x} < bound" for x in v[o : o + 4]] + [f"-inf < {v[o + 4]} < inf"]
        if target in POLE_PARAMS:
            tests.append(f"{v[o + 4]}*sign_{j} > 0.0")
        energies += _renamed(ENERGY, _names(j, v[o : o + 4], live={target: v[o + 4]}))
        rows.append(f"(t, v0, v1, v2, v3, {', '.join(v[o : o + 5])}, H_0, Hdot_0, H_{j}, Hdot_{j})")

    def derivative(active: bool):
        def body(u, k):
            pre_names = _names(0, u[:4], k[:4])
            sender = {f"{name}_0": local for name, local in pre_names.items()}
            lines = _renamed(FIELD, pre_names)
            for j, (config, o) in enumerate(zip(receivers, offsets), 1):
                target = _target(config)
                sens_row, sens = SENSITIVITY_EXPR[target]
                post = _names(j, u[o : o + 4], k[o : o + 4], {target: u[o + 4]})
                pair = {**sender, **{f"{name}_1": local for name, local in post.items()}}
                pair.update(K=f"K_{j}", neg_gain=f"neg_gain_{j}", dq=k[o + 4],
                            sens_0=f"({rename(sens, pre_names)})", row_0=u[sens_row],
                            row_1=u[o + sens_row])
                coupling, (dq, law) = _renamed(PAIR, pair)
                adapts = active and config.adaptation is not None
                lines += [*_renamed(FIELD, post), coupling, (dq, law if adapts else "0.0")]
            return lines

        return body

    idle = _rk4_kernel("idle", n, derivative(False), env)
    adapting = any(config.adaptation for config in receivers)
    active = _rk4_kernel("active", n, derivative(True), env) if adapting else idle
    unpack = (", ".join(v), "S")
    rows = rows or ["(t, v0, v1, v2, v3, H_0, Hdot_0)"]
    handed = ", ".join(f"puts[{j}]({r})" for j, r in enumerate(rows))
    row = compile_kernel("row", "t, S, puts", [unpack, *energies], f"({handed},)", env)
    inside = compile_kernel("inside", "S", [unpack], " and ".join(tests), env)
    return idle, active, row, inside


def _fault(values: tuple, i: int, dt: float, config: PairConfig | None = None):
    """The :class:`DivergenceError` that stops the pair ``config`` whose
    state ``(*pre, *post, q)`` after step ``i`` is ``values``, or, without
    ``config``, a lone neuron whose state is; None if it may go on. A
    non-finite value stops it at the step's start time; otherwise a state
    component at or past the bound, and then an adapted ``a``, ``m`` or
    ``s`` that lost the sign it starts with, stop it at the step's end."""
    t, end = i * dt, (i + 1) * dt
    signed = config and _target(config)
    if not all(map(math.isfinite, values)):
        return DivergenceError(t, f"non-finite state after step at t={t:g}")
    if not all(-DIVERGENCE_BOUND < x < DIVERGENCE_BOUND for x in values[:8]):
        return DivergenceError(
            end, f"state left the boundedness guard (|component| >= {DIVERGENCE_BOUND:g})"
                 f" at t={end:g}")
    if signed in POLE_PARAMS and not values[8] * getattr(config.post, signed) > 0.0:
        return DivergenceError(
            end, f"adapted parameter {signed!r} reached zero or changed sign at t={end:g};"
                 " the energy divides by a and m*s")
    return None


def _integrate(spec: SimSpec, pre: NeuronParams, receivers: Sequence[PairConfig], kernels,
               emits, recorded: Sequence[range], stop=None) -> None:
    """RK4 from t=0 to ``spec.t_end`` of a sender with parameters ``pre``
    that drives ``receivers``, which share one adaptation start, emitting
    the recorded samples of each sink in blocks: ``emits[j]`` gets receiver
    ``j``'s, or, without receivers, the lone neuron's. ``kernels`` are
    :func:`_kernels` of ``pre`` and ``receivers``.

    A step is ``active(state)`` when its left endpoint is at or past the
    adaptation start, else ``idle(state)``. One generated test, ``inside``,
    checks every step. When it fails, each receiver is judged by
    :func:`_fault` over its own ``(sender, receiver, q)``, the lone neuron
    over its state. A receiver that fails gets ``stop(j, error)``, or, with
    no ``stop``, the error is raised; its partial block is dropped, and the
    others go on with kernels generated for them alone, so their rows keep
    their bits. A failing sender fails every receiver. ``recorded`` holds
    the indices ``i`` of the recorded steps ``t = i*dt`` as sorted, disjoint
    ranges, and no other step computes a row. At each, each sink's row is
    appended to its own flat ``array("d")``, which goes to its ``emit``
    every ``BLOCK_ROWS // len(emits)`` rows and at the end, so a caller fed
    by a forked run formats one block while the next is integrated.
    """
    dt = spec.dt
    per_block = max(1, BLOCK_ROWS // len(emits))
    steps = chain.from_iterable(recorded)
    at, rows = next(steps, -1), 0  # the next recorded step, the rows so far
    start = min((c.adaptation.start_time for c in receivers if c.adaptation), default=math.inf)
    post = spec.initial_post.as_tuple()
    state = (*spec.initial_pre.as_tuple(),
             *(x for c in receivers for x in (*post, getattr(c.post, _target(c)))))
    ids = list(range(len(receivers)))
    idle, active, row, inside = kernels
    blocks = [array("d") for _ in emits]
    puts = [block.extend for block in blocks]
    n_steps = spec.n_steps
    for i in range(n_steps + 1):
        t = i * dt
        if i == at:
            row(t, state, puts)
            at, rows = next(steps, -1), rows + 1
            if rows % per_block == 0:
                for emit, block in zip(emits, blocks):
                    emit(block)
                blocks = [array("d") for _ in emits]
                puts = [block.extend for block in blocks]
        if i == n_steps:
            break
        state = active(state) if t >= start else idle(state)
        if not inside(state):
            if not receivers:
                raise _fault(state, i, dt)
            parts = [state[o : o + 5] for o in range(4, len(state), 5)]
            faults = [_fault(state[:4] + part, i, dt, c) for c, part in zip(receivers, parts)]
            if stop is None:
                raise next(filter(None, faults))
            for j, error in zip(ids, faults):
                if error:
                    stop(j, error)
            kept = [error is None for error in faults]
            receivers, ids, emits, blocks, parts = (
                list(compress(items, kept)) for items in (receivers, ids, emits, blocks, parts))
            if not receivers:
                return
            state = tuple(chain(state[:4], *parts))
            puts = [block.extend for block in blocks]
            idle, active, row, inside = _kernels(pre, receivers, dt)
    for emit, block in zip(emits, blocks):
        if block:
            emit(block)


def _rows(block, width: int) -> memoryview:
    """The floats of ``block`` as a read-only ``memoryview`` cast to ``(n, width)``."""
    flat = memoryview(block).toreadonly().cast("B")
    return flat.cast("d", (len(flat) // (8 * width), width))


def _hand(sink: Sink, width: int):
    """``hand(block, *texts)``: give ``sink`` the floats of ``block`` as
    counted rows (:func:`_rows`), with the ``texts`` a child made of them."""

    def hand(block, *texts) -> None:
        rows = _rows(block, width)
        sink.handed += len(rows)
        sink.put(rows, *texts)

    return hand


def _behind(unread: int) -> bool:
    """Whether a forked child formats its next block itself: with ``unread``
    blocks, two or more, in the pipe for the caller to format, the caller
    would start on this one no sooner than two blocks later."""
    return unread >= 2


def _stream(spec: SimSpec, sink: Sink | None, width: int, pre: NeuronParams,
            receivers: Sequence[PairConfig]) -> Sink:
    """Integrate ``pre`` driving ``receivers`` (none or one) over all of
    ``spec.recorded_steps``, hand each block it emits to ``sink`` as counted
    rows in this process (see :func:`_hand`), and return the sink (a new
    :class:`Collector` when ``sink`` is None).

    A run of one block (at most :data:`BLOCK_ROWS` rows) has nothing to
    overlap and a :class:`Collector` gains nothing from a second process, so
    those integrate in process, and so does every run of a process that may
    use one CPU alone (:func:`hrsync.fork.cores`) or whose child cannot
    start (:class:`hrsync.fork.Child` raises ``OSError``). Otherwise a forked
    child emits each block's bytes to this process as soon as the block is
    full; this process hands the blocks to ``sink`` in order and raises the
    exception that stopped the child's run, if any. The child's copy of a
    sink that formats (:attr:`Sink.text`) formats each block that finds this
    process :func:`_behind`, as the bytes it has read of the pipe tell
    (:func:`hrsync.fork.unread`), and sends the text with the floats;
    through the other blocks it only carries the sink's state
    (:meth:`Sink.carry`). Where the pipe cannot tell, the child formats
    nothing.
    """
    sink = Collector() if sink is None else sink
    # generated before the run may fork, so a forked child inherits them
    kernels, recorded = _kernels(pre, receivers, spec.dt), [spec.recorded_steps]
    hand = _hand(sink, width)
    if (len(spec.recorded_steps) > BLOCK_ROWS and not isinstance(sink, Collector)
            and fork.cores() > 1):
        def run(send, read) -> None:
            ends = deque()  # where each block sent for the caller to format ends

            def emit(block) -> None:
                rows, done = _rows(block, width), read()
                while ends and ends[0] <= done:
                    ends.popleft()
                if _behind(len(ends)):
                    send(block, *sink.text(rows))
                else:
                    sink.carry(rows)
                    ends.append(send(block))

            _integrate(spec, pre, receivers, kernels, [send if sink.text is None else emit],
                       recorded)

        try:
            child = fork.Child(run)
        except OSError:  # no os.fork, or no process or pipe to spare
            pass
        else:
            child.result(hand)
            return sink
    _integrate(spec, pre, receivers, kernels, [hand], recorded)
    return sink


def _drive(spec: SimSpec, configs: Sequence[PairConfig], sinks: Sequence[Sink],
           recorded: Sequence[range]) -> list:
    """Integrate, in this process, one sender driving the receivers of
    ``configs``, which share its parameters ``pre`` and their adaptation
    start, and hand receiver ``j``'s pair rows at the steps of ``recorded``
    (sorted, disjoint ranges) to ``sinks[j]``. A receiver that diverges
    stops alone. Returns, per receiver, the :class:`DivergenceError` that
    stopped it, or None."""
    errors = [None] * len(configs)
    _integrate(spec, configs[0].pre, configs, _kernels(configs[0].pre, configs, spec.dt),
               [_hand(sink, 14) for sink in sinks], recorded, errors.__setitem__)
    return errors


def run_pair(spec: SimSpec, config: PairConfig, sink: Sink | None = None):
    """Integrate the coupled pair from t=0 to ``spec.t_end``.

    Records every ``spec.record_every`` steps for ``t >= transient``.
    Energies are evaluated with each neuron's own parameters; the receiving
    neuron uses the live adapted value. Returns the :class:`Trajectory`, or,
    given a ``sink``, hands it the rows and returns the sink.
    """
    rows = _stream(spec, sink, 14, config.pre, [config])
    return Trajectory.of_pair_rows(rows.table(14)) if sink is None else rows


def run_isolated(spec: SimSpec, params: NeuronParams, sink: Sink | None = None):
    """Integrate a single free neuron started from ``spec.initial_pre``.

    Returns the :class:`Trajectory`, or, given a ``sink``, hands it the rows
    and returns the sink. In the trajectory the lone neuron fills both state
    slots (so the error is zero), and ``q`` is its constant external current.
    """
    rows = _stream(spec, sink, 7, params, [])
    if sink is not None:
        return rows
    import numpy as np

    table = rows.table(7)
    state = table[:, 1:5]
    q = np.full(len(table), params.I)
    q.flags.writeable = False
    return Trajectory(
        t=table[:, 0],
        pre=state,
        post=state,
        q=q,
        H_pre=table[:, 5],
        Hdot_pre=table[:, 6],
        H_post=table[:, 5],
        Hdot_post=table[:, 6],
    )
