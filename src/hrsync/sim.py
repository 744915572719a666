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

Every target takes the same path. At the start of a run, the RK4 step and
the recorded sample row are generated as straight-line Python from the
expression tables :data:`hrsync.model.FIELD`, :data:`hrsync.model.PAIR`,
:data:`hrsync.model.SENSITIVITY_EXPR` and :data:`hrsync.energy.ENERGY`, and
compiled (:mod:`hrsync.codegen`). The receiver's equations read the live
value ``q`` in place of the adapted parameter. Since ``d f / d q`` has a
single nonzero row, ``PAIR``'s law is ``dq/dt = -gain*s*e_row`` with
``(row, s)`` from the sensitivity table. The parameters, and every constant
that ``q`` does not enter, are bound once per run. Each generated step
agrees bit for bit with a hand-written RK4 step over the per-point kernels,
which the tests keep as its reference. The energy divides by ``a`` and
``m*s``, so a run that adapts ``a``, ``m`` or ``s`` stops with
:class:`DivergenceError` once that parameter reaches zero or changes sign.

Both the pair and the lone neuron (:func:`run_isolated`) go through one
integration loop, which emits the recorded samples as flat blocks of floats.
:func:`_stream` hands each block to a :class:`Sink` as a read-only 2-D
``memoryview`` of its rows, so a caller that formats or reduces each block
holds no more than one block of the run, and imports no numpy. Without a
sink, a :class:`Collector` keeps every row and the run returns a columnar
:class:`Trajectory` of numpy arrays; only such runs import numpy. Runs are
deterministic: identical specs and configs produce bit-identical rows on a
given build. On two or more cores, a run of several blocks with a sink
other than a :class:`Collector` integrates in a forked child while the
caller's sink formats the blocks; the rows and errors are the same as in
process.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import astuple, dataclass, fields
from typing import TYPE_CHECKING

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
#: reduces each block holds no more than this many rows of the run.
BLOCK_ROWS = 4096

#: Capacity asked for the pipe from an integrating child: 1 MiB, Linux's
#: default limit, holds a few blocks. The default 64 KiB holds less than one,
#: yet the overlap still saves about a third of the time of one process.
PIPE_BYTES = 1 << 20


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
    last block may be shorter) with a fresh read-only ``memoryview`` of
    float64, cast to shape ``(n, width)``: its ``len()`` is ``n``,
    :meth:`rows` gives the rows one at a time, and :meth:`column` gives a
    column. A row is the run's sample: ``(t, x, y, z, w, H, Hdot)`` for a
    lone neuron, ``(t, *pre, *post, q, H_pre, Hdot_pre, H_post,
    Hdot_post)`` for a pair. ``len()`` is the number of rows handed over so
    far, counted in ``handed``. A run that stops
    with :class:`DivergenceError` does not hand over its last partial block.
    The rows are counted, and :meth:`put` is called, in the caller's
    process.
    """

    handed = 0

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


def _lone_kernels(params: NeuronParams, dt: float):
    """``(step, row)`` of the lone neuron, generated from the tables:
    ``step(S)`` is one RK4 step of the 4-component state and ``row(t, S)``
    the recorded sample ``(t, x, y, z, w, H, Hdot)``."""
    env = {**_bind(0, astuple(params)), "dt": dt}
    step = _rk4_kernel("step", 4, lambda u, k: _renamed(FIELD, _names(0, u, k)), env)
    v = ("v0", "v1", "v2", "v3")
    row = compile_kernel(
        "row", "t, S", [("v0, v1, v2, v3", "S"), *_renamed(ENERGY, _names(0, v))],
        "(t, v0, v1, v2, v3, H_0, Hdot_0)", env,
    )
    return step, row


def _pair_kernels(config: PairConfig, dt: float):
    """``(idle, active, row)`` of the pair, generated from the tables:
    ``idle(S)`` and ``active(S)`` are one RK4 step of the joint state without
    and with the law, :data:`PAIR`'s ``dq`` row, and ``row(t, S)`` is the
    sample ``(t, *S, H_pre, Hdot_pre, H_post, Hdot_post)``. The receiver
    reads the live ``q`` in place of the adapted target."""
    adapt = config.adaptation
    target = _target(config)
    sens_row, sens = SENSITIVITY_EXPR[target]
    env = {
        **_bind(0, astuple(config.pre)),
        **_bind(1, astuple(config.post)),
        "K": config.K,
        "neg_gain": -adapt.gain if adapt else 0.0,
        "dt": dt,
    }

    def derivative(active: bool):
        def body(u, k):
            pre, post = _names(0, u[:4], k[:4]), _names(1, u[4:8], k[4:8], {target: u[8]})
            pair = {f"{name}_{j}": local for j, names in enumerate((pre, post))
                    for name, local in names.items()}
            pair.update(dq=k[8], sens_0=f"({rename(sens, pre)})", row_0=u[sens_row],
                        row_1=u[4 + sens_row])
            coupling, (dq, law) = _renamed(PAIR, pair)
            return [*_renamed(FIELD, pre), *_renamed(FIELD, post), coupling,
                    (dq, law if active else "0.0")]

        return body

    idle = _rk4_kernel("idle", 9, derivative(False), env)
    active = _rk4_kernel("active", 9, derivative(True), env) if adapt else idle
    v = [f"v{j}" for j in range(9)]
    energies = _renamed(ENERGY, _names(0, v[:4]))
    energies += _renamed(ENERGY, _names(1, v[4:8], live={target: "v8"}))
    row = compile_kernel(
        "row", "t, S", [(", ".join(v), "S"), *energies],
        f"(t, {', '.join(v)}, H_0, Hdot_0, H_1, Hdot_1)", env,
    )
    return idle, active, row


def _inside_kernel(n: int, guarded: int):
    """``inside(S)``: true when the first ``guarded`` of the ``n`` components
    lie inside the divergence bound and the rest are finite; false for NaN."""
    v = [f"v{j}" for j in range(n)]
    tests = [f"-bound < {x} < bound" for x in v[:guarded]]
    tests += [f"-inf < {x} < inf" for x in v[guarded:]]
    env = {"bound": DIVERGENCE_BOUND, "inf": math.inf}
    return compile_kernel("inside", "S", [(", ".join(v), "S")], " and ".join(tests), env)


def _integrate(spec: SimSpec, state: tuple, idle, active, start: float,
               guarded: int, row, emit, signed: str | None = None) -> None:
    """RK4 from t=0 to ``spec.t_end``, emitting the recorded samples in blocks.

    A step is ``active(state)`` when its left endpoint is at or past
    ``start``, else ``idle(state)``. A step whose result is not finite stops
    the run at the step's start time. The first ``guarded`` state components
    are held to the divergence bound; one generated test, ``inside``, checks
    both on every step. If ``signed`` names the last component,
    that component must keep the sign it starts with and never reach zero.
    At each of ``spec.recorded_steps``, the floats of ``row(t, state)`` are
    appended to a flat ``array("d")``, which goes to ``emit`` every
    :data:`BLOCK_ROWS` rows and at the end.
    """
    dt = spec.dt
    recorded = spec.recorded_steps
    rec, first = recorded.step, recorded.start
    per_block = BLOCK_ROWS
    # step index of the last row of the current block
    flush_at = first + (per_block - 1) * rec

    block = array("d")
    put = block.extend
    n_steps = spec.n_steps
    sign = state[-1]
    inside = _inside_kernel(len(state), guarded)
    for i in range(n_steps + 1):
        t = i * dt
        if i >= first and i % rec == 0:
            put(row(t, state))
            if i == flush_at:
                emit(block)
                block = array("d")
                put = block.extend
                flush_at += per_block * rec
        if i == n_steps:
            break
        state = active(state) if t >= start else idle(state)
        if not inside(state):
            if not all(map(math.isfinite, state)):
                raise DivergenceError(t, f"non-finite state after step at t={t:g}")
            raise DivergenceError(
                (i + 1) * dt,
                f"state left the boundedness guard (|component| >= {DIVERGENCE_BOUND:g})"
                f" at t={(i + 1) * dt:g}",
            )
        if signed and not state[-1] * sign > 0.0:
            raise DivergenceError(
                (i + 1) * dt,
                f"adapted parameter {signed!r} reached zero or changed sign at"
                f" t={(i + 1) * dt:g}; the energy divides by a and m*s",
            )
    if block:
        emit(block)


class _Child:
    """A forked child process that runs ``work(send)``, then sends its
    outcome: the value ``work`` returned, or the exception that stopped it.

    ``send(data)`` passes the bytes of ``data`` to this process as one
    message, through a pipe whose capacity bounds how far the child runs
    ahead. The child never returns or raises into the caller's frames: they
    would stage, rename or delete the caller's output files. :meth:`result`
    reads the child from this process, and :meth:`close` reaps it.
    """

    def __init__(self, work):
        import fcntl
        import pickle

        reader, writer = os.pipe()
        try:
            fcntl.fcntl(writer, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except (AttributeError, OSError):
            pass  # not Linux, or above the host's limit: a 64 KiB pipe overlaps too

        def send(data) -> None:
            view = memoryview(data).cast("B")
            for chunk in (len(view).to_bytes(8, "little"), view):
                while chunk:
                    chunk = chunk[os.write(writer, chunk):]

        try:
            pid = os.fork()
        except BaseException:
            os.close(reader)
            os.close(writer)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(reader)
                try:
                    outcome = work(send), None
                except BaseException as exc:  # re-raised by the parent
                    outcome = None, exc
                send(b"")
                send(pickle.dumps(outcome))
                code = 0
            finally:
                os._exit(code)
        os.close(writer)
        self.pid, self.reader = pid, reader

    def fileno(self) -> int:
        return self.reader

    def _read(self, size: int) -> bytearray:
        """The child's next ``size`` bytes, in a fresh buffer."""
        buffer = bytearray(size)
        view = memoryview(buffer)
        while view:
            got = os.readv(self.reader, [view])
            if not got:
                raise ChildProcessError("a forked process ended before it sent its outcome")
            view = view[got:]
        return buffer

    def _receive(self) -> bytearray:
        """The child's next message."""
        return self._read(int.from_bytes(self._read(8), "little"))

    def result(self, hand=None):
        """Hand each message the child sends to ``hand``, in order, then
        reap the child and return its value or raise its exception. If the
        child ended before it sent its outcome, raise
        :class:`ChildProcessError`. On any error here the child is killed
        before it is reaped."""
        import pickle

        try:
            while message := self._receive():
                hand(message)
                del message  # not held while the next one is received
            value, error = pickle.loads(self._receive())
        except BaseException:
            self.close(kill=True)
            raise
        self.close()
        if error is not None:
            raise error
        return value

    def close(self, kill: bool = False) -> None:
        """Reap the child once, with ``kill`` ending it first: it may have
        much of its run left."""
        import signal

        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        os.close(self.reader)
        if kill:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _stream(spec: SimSpec, sink: Sink | None, width: int, integrate) -> Sink:
    """Run ``integrate(emit)``, hand each flat block it emits to ``sink`` as
    counted rows, a read-only ``memoryview`` cast to ``(n, width)``, in this
    process, and return the sink (a new :class:`Collector` when ``sink`` is
    None).

    A run of one block has nothing to overlap and a :class:`Collector` (the
    sweep's window sink among them) gains nothing from a second process, so
    those, and hosts with one core or without ``os.fork``, integrate in
    process. Otherwise a forked :class:`_Child` emits each block's bytes to
    this process, which hands the blocks to ``sink`` in order and raises the
    exception that stopped the child's run, if any.
    """
    if sink is None:
        sink = Collector()

    def hand(block) -> None:
        flat = memoryview(block).toreadonly().cast("B")
        rows = flat.cast("d", (len(flat) // (8 * width), width))
        sink.handed += len(rows)
        sink.put(rows)

    if (len(spec.recorded_steps) <= BLOCK_ROWS or isinstance(sink, Collector)
            or (os.cpu_count() or 1) < 2 or not hasattr(os, "fork")):
        integrate(hand)
    else:
        _Child(integrate).result(hand)
    return sink


def run_pair(spec: SimSpec, config: PairConfig, sink: Sink | None = None):
    """Integrate the coupled pair from t=0 to ``spec.t_end``.

    Records every ``spec.record_every`` steps for ``t >= transient``.
    Energies are evaluated with each neuron's own parameters; the receiving
    neuron uses the live adapted value. Returns the :class:`Trajectory`, or,
    given a ``sink``, hands it the rows and returns the sink.
    """
    adapt = config.adaptation
    start = adapt.start_time if adapt is not None else math.inf
    target = _target(config)
    q = getattr(config.post, target)
    joint = (*spec.initial_pre.as_tuple(), *spec.initial_post.as_tuple(), q)
    idle, active, row = _pair_kernels(config, spec.dt)
    signed = target if target in POLE_PARAMS else None
    rows = _stream(spec, sink, 14, lambda emit: _integrate(spec, joint, idle, active, start, 8,
                                                           row, emit, signed))
    return Trajectory.of_pair_rows(rows.table(14)) if sink is None else rows


def run_isolated(spec: SimSpec, params: NeuronParams, sink: Sink | None = None):
    """Integrate a single free neuron started from ``spec.initial_pre``.

    Returns the :class:`Trajectory`, or, given a ``sink``, hands it the rows
    and returns the sink. In the trajectory the lone neuron fills both state
    slots (so the error is zero), and ``q`` is its constant external current.
    """
    step, row = _lone_kernels(params, spec.dt)
    start = spec.initial_pre.as_tuple()
    rows = _stream(spec, sink, 7, lambda emit: _integrate(spec, start, step, step, math.inf, 4,
                                                          row, emit))
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
