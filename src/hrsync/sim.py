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

Every target takes the same path. Each neuron's parameters are one flat
sequence, the receiver's with the live value ``q`` written at the target's
index, and both go to the one field kernel and the one energy kernel. Since
``d f / d q`` has a single nonzero row, the law is ``dq/dt = -gain*s*e_row``
with ``(row, s)`` read from :data:`hrsync.model.SENSITIVITY`. The energy
divides by ``a`` and ``m*s``, so a run that adapts ``a``, ``m`` or ``s``
stops with :class:`DivergenceError` once that parameter reaches zero or
changes sign.

Both the pair and the lone neuron (:func:`run_isolated`) go through one
integration loop and one RK4 over tuples of Python floats, recording into a
columnar :class:`Trajectory`. Runs are deterministic: identical specs and
configs produce bit-identical trajectories on a given build.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import astuple, dataclass, fields

import numpy as np

from .energy import POLE_PARAMS, energy_terms
from .model import ADAPTABLE_PARAMS, PARAM_INDEX, SENSITIVITY, NeuronParams, NeuronState, field

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
    :class:`DivergenceError` if the result is not finite.
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


def _receiver_params(config: PairConfig) -> tuple[str, int, list]:
    """``(target, index, live)``: the adapted target, its index in the flat
    parameter tuple, and the receiver's parameters as a list. A kernel writes
    the live value to ``live[index]`` before each use."""
    target = config.adaptation.target if config.adaptation else "I"
    return target, PARAM_INDEX[target], list(astuple(config.post))


def _make_pair_rhs(config: PairConfig):
    """Derivatives of the 9-component joint state, as ``(idle, active)``
    kernels ``f(joint, t)``.

    Layout: (pre x,y,z,w, post x,y,z,w, adapted parameter). The adapted
    parameter's derivative is zero in the idle kernel.
    """
    P_pre = astuple(config.pre)
    target, i, P_post = _receiver_params(config)
    row, sens = SENSITIVITY[target]
    post_row = 4 + row
    K = config.K
    neg_gain = -config.adaptation.gain if config.adaptation else 0.0

    def make(active: bool):
        def rhs(joint, t: float) -> tuple:
            x1, y1, z1, w1, x2, y2, z2, w2, q = joint
            d1 = field(x1, y1, z1, w1, P_pre)
            P_post[i] = q
            dx2, dy2, dz2, dw2 = field(x2, y2, z2, w2, P_post)
            if active:
                dq = neg_gain * sens(x1, y1, z1, w1, P_pre) * (joint[post_row] - joint[row])
            else:
                dq = 0.0
            return (*d1, dx2 + K * (x1 - x2), dy2, dz2, dw2, dq)

        return rhs

    return make(False), make(True)


def coupled_derivative(joint, config: PairConfig, t: float) -> np.ndarray:
    """Joint derivative of the coupled pair at time ``t``.

    ``joint`` packs (pre_state, post_state, adapted parameter) as a flat
    9-vector. The adaptation term is zero before its start time or when no
    adaptation is configured.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.shape != (9,):
        raise ValueError(f"joint state must be a flat 9-vector, got shape {joint.shape}")
    if not np.all(np.isfinite(joint)):
        raise ValueError("joint state must be finite")
    adapt = config.adaptation
    active = adapt is not None and t >= adapt.start_time
    f_idle, f_active = _make_pair_rhs(config)
    return np.array((f_active if active else f_idle)(joint.tolist(), t))


def _integrate(spec: SimSpec, state: tuple, f_idle, f_active, start: float,
               guarded: int, row, signed: str | None = None) -> np.ndarray:
    """RK4 from t=0 to ``spec.t_end``; returns the recorded rows, flattened.

    A step uses ``f_active`` when its left endpoint is at or past ``start``,
    else ``f_idle``. The first ``guarded`` state components are held to the
    divergence bound. If ``signed`` names the last component, that component
    must keep the sign it starts with and never reach zero. Every
    ``spec.record_every`` steps from ``transient`` on, ``row(t, state)`` is
    appended to one flat float buffer, which is returned as a read-only
    array without copying.
    """
    dt = spec.dt
    rec = spec.record_every
    record_from = spec.transient - 1e-12
    rows = array("d")
    put = rows.extend
    n_steps = spec.n_steps
    sign = state[-1]
    for i in range(n_steps + 1):
        t = i * dt
        if i % rec == 0 and t >= record_from:
            put(row(t, state))
        if i == n_steps:
            break
        state = rk4_step(f_active if t >= start else f_idle, state, t, dt)
        if max(map(abs, state[:guarded])) >= DIVERGENCE_BOUND:
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
    P_pre = astuple(config.pre)
    target, i, P_post = _receiver_params(config)

    def row(t: float, joint: tuple) -> tuple:
        x1, y1, z1, w1, x2, y2, z2, w2, q = joint
        H1, Hdot1, _, _ = energy_terms(x1, y1, z1, w1, P_pre)
        P_post[i] = q
        H2, Hdot2, _, _ = energy_terms(x2, y2, z2, w2, P_post)
        return (t, *joint, H1, Hdot1, H2, Hdot2)

    joint = (*spec.initial_pre.as_tuple(), *spec.initial_post.as_tuple(), P_post[i])
    f_idle, f_active = _make_pair_rhs(config)
    signed = target if target in POLE_PARAMS else None
    table = _integrate(spec, joint, f_idle, f_active, start, 8, row, signed).reshape(-1, 14)
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
    P = astuple(params)

    def f(state, t: float) -> tuple:
        return field(*state, P)

    def row(t: float, state: tuple) -> tuple:
        H, Hdot, _, _ = energy_terms(*state, P)
        return (t, *state, H, Hdot)

    table = _integrate(spec, spec.initial_pre.as_tuple(), f, f, math.inf, 4, row).reshape(-1, 7)
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
