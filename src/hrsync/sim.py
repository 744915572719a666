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
expression tables :data:`hrsync.model.FIELD`,
:data:`hrsync.model.SENSITIVITY_EXPR` and :data:`hrsync.energy.ENERGY`, and
compiled (:mod:`hrsync.codegen`). The receiver's equations read the live
value ``q`` in place of the adapted parameter. Since ``d f / d q`` has a
single nonzero row, the law is ``dq/dt = -gain*s*e_row`` with ``(row, s)``
from the sensitivity table. The parameters, and every constant that ``q``
does not enter, are bound once per run. Each generated step follows the
operation order of :func:`rk4_step` over the per-point kernels, so the two
agree bit for bit. The energy divides by ``a`` and ``m*s``, so a run that
adapts ``a``, ``m`` or ``s`` stops with :class:`DivergenceError` once that
parameter reaches zero or changes sign.

Both the pair and the lone neuron (:func:`run_isolated`) go through one
integration loop, recording into a columnar :class:`Trajectory`. Runs are
deterministic: identical specs and configs produce bit-identical
trajectories on a given build.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import astuple, dataclass, fields

import numpy as np

from .codegen import compile_kernel, rename
from .energy import ENERGY, POLE_PARAMS
from .model import (
    ADAPTABLE_PARAMS,
    FIELD,
    PARAM_INDEX,
    SENSITIVITY,
    SENSITIVITY_EXPR,
    NeuronParams,
    NeuronState,
    field,
)

__all__ = [
    "AdaptationSpec",
    "DivergenceError",
    "PairConfig",
    "SimSpec",
    "Trajectory",
    "coupled_derivative",
    "rk4_step",
    "run_isolated",
    "run_pair",
]

#: Trajectories of the canonical model stay within a few units of the origin;
#: reaching this bound means the integration has left the physical regime.
DIVERGENCE_BOUND = 100.0


class DivergenceError(RuntimeError):
    """Raised when a trajectory leaves the boundedness guard or turns non-finite."""

    def __init__(self, t: float, message: str | None = None):
        self.t = t
        super().__init__(message or f"trajectory diverged at t={t:g}")


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
        steps = round(self.t_end / self.dt)
        if steps < 1 or abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded instants of a run, one read-only column per quantity.

    ``t`` holds the sample times; ``pre`` and ``post`` are ``(n, 4)`` state
    columns in (x, y, z, w) order. ``q`` is the live value of the adapted
    parameter (the postsynaptic external current unless another target was
    configured). ``H_*`` and ``Hdot_*`` are each neuron's energy and energy
    derivative. ``len()`` is the number of samples, and two trajectories are
    equal when every column is.
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
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    @property
    def e(self) -> np.ndarray:
        """State error ``post - pre``, one ``(n, 4)`` row per sample."""
        return self.post - self.pre


def rk4_step(f, state: tuple, t: float, dt: float) -> tuple:
    """One classical fourth-order Runge-Kutta step of ``d state/dt = f(state, t)``.

    ``state`` is a tuple of floats and ``f`` returns a sequence of the same
    length; stages are passed to ``f`` as lists. Each component follows the
    operation order of the vector form ``state + (dt/6)*(k1 + 2*(k2 + k3) + k4)``,
    so it is bit-identical to that form evaluated on float64 arrays. Raises
    :class:`DivergenceError` if the result is not finite. Runs use generated
    steps with the same operation order; this is their reference.
    """
    half = 0.5 * dt
    k1 = f(state, t)
    k2 = f([s + half * k for s, k in zip(state, k1)], t + half)
    k3 = f([s + half * k for s, k in zip(state, k2)], t + half)
    k4 = f([s + dt * k for s, k in zip(state, k3)], t + dt)
    sixth = dt / 6.0
    out = tuple(
        [s + sixth * (a + 2.0 * (b + c) + d) for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
    )
    if not all(map(math.isfinite, out)):
        raise DivergenceError(t, f"non-finite state after step at t={t:g}")
    return out


def _target(config: PairConfig) -> str:
    """The receiver's adapted parameter; ``I`` when nothing is adapted."""
    return config.adaptation.target if config.adaptation else "I"


def coupled_derivative(joint, config: PairConfig, t: float) -> np.ndarray:
    """Joint derivative of the coupled pair at time ``t``.

    ``joint`` packs (pre_state, post_state, adapted parameter) as a flat
    9-vector. The adaptation term is zero before its start time or when no
    adaptation is configured. This is the per-point form of the pair
    equations that :func:`run_pair` integrates with generated code.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.shape != (9,):
        raise ValueError(f"joint state must be a flat 9-vector, got shape {joint.shape}")
    if not np.all(np.isfinite(joint)):
        raise ValueError("joint state must be finite")
    x1, y1, z1, w1, x2, y2, z2, w2, q = joint = joint.tolist()
    target, adapt = _target(config), config.adaptation
    P_pre, P_post = astuple(config.pre), list(astuple(config.post))
    P_post[PARAM_INDEX[target]] = q
    dq = 0.0
    if adapt is not None and t >= adapt.start_time:
        row, sens = SENSITIVITY[target]
        dq = -adapt.gain * sens(x1, y1, z1, w1, P_pre) * (joint[4 + row] - joint[row])
    dx2, dy2, dz2, dw2 = field(x2, y2, z2, w2, P_post)
    d1 = field(x1, y1, z1, w1, P_pre)
    return np.array((*d1, dx2 + config.K * (x1 - x2), dy2, dz2, dw2, dq))


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
    derivative at a stage. Each component follows :func:`rk4_step`'s
    operation order, so the two agree bit for bit."""
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
    and with the law ``dq/dt = (-gain*s)*e_row``, and ``row(t, S)`` is the
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
            law = f"neg_gain*({rename(sens, pre)})*({u[4 + sens_row]} - {u[sens_row]})"
            return [
                *_renamed(FIELD, pre),
                *_renamed(FIELD, post),
                (k[4], f"{k[4]} + K*({u[0]} - {u[4]})"),
                (k[8], law if active else "0.0"),
            ]

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
               guarded: int, row, signed: str | None = None) -> np.ndarray:
    """RK4 from t=0 to ``spec.t_end``; returns the recorded rows, flattened.

    A step is ``active(state)`` when its left endpoint is at or past
    ``start``, else ``idle(state)``. A step whose result is not finite stops
    the run at the step's start time. The first ``guarded`` state components
    are held to the divergence bound; one generated test, ``inside``, checks
    both on every step. If ``signed`` names the last component,
    that component must keep the sign it starts with and never reach zero.
    Every ``spec.record_every`` steps from ``transient`` on, ``row(t, state)``
    is appended to one flat float buffer, which is returned as a read-only
    array without copying.
    """
    dt = spec.dt
    rec = spec.record_every
    record_from = spec.transient - 1e-12
    rows = array("d")
    put = rows.extend
    n_steps = spec.n_steps
    sign = state[-1]
    inside = _inside_kernel(len(state), guarded)
    for i in range(n_steps + 1):
        t = i * dt
        if i % rec == 0 and t >= record_from:
            put(row(t, state))
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
    table = np.frombuffer(rows, dtype=float)
    table.flags.writeable = False
    return table


def run_pair(spec: SimSpec, config: PairConfig) -> Trajectory:
    """Integrate the coupled pair from t=0 to ``spec.t_end``.

    Records every ``spec.record_every`` steps for ``t >= transient``.
    Energies are evaluated with each neuron's own parameters; the receiving
    neuron uses the live adapted value.
    """
    adapt = config.adaptation
    start = adapt.start_time if adapt is not None else math.inf
    target = _target(config)
    q = getattr(config.post, target)
    joint = (*spec.initial_pre.as_tuple(), *spec.initial_post.as_tuple(), q)
    idle, active, row = _pair_kernels(config, spec.dt)
    signed = target if target in POLE_PARAMS else None
    table = _integrate(spec, joint, idle, active, start, 8, row, signed).reshape(-1, 14)
    return Trajectory(
        t=table[:, 0],
        pre=table[:, 1:5],
        post=table[:, 5:9],
        q=table[:, 9],
        H_pre=table[:, 10],
        Hdot_pre=table[:, 11],
        H_post=table[:, 12],
        Hdot_post=table[:, 13],
    )


def run_isolated(spec: SimSpec, params: NeuronParams) -> Trajectory:
    """Integrate a single free neuron started from ``spec.initial_pre``.

    The lone neuron fills both state slots (so the error is zero), and ``q``
    is its constant external current.
    """
    step, row = _lone_kernels(params, spec.dt)
    start = spec.initial_pre.as_tuple()
    table = _integrate(spec, start, step, step, math.inf, 4, row).reshape(-1, 7)
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
