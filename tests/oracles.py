"""Independent reference computations used by the tests.

The exact oracles re-derive expected values from scratch in rational
arithmetic (all canonical constants are finite decimals), staying deliberately
separate from the library's float kernels. Central finite differences are
provided for derivative cross-checks.

The float references are written by hand: :func:`rk4_step` and the pair
equations :func:`coupled_derivative`, over the per-point kernels ``field``
and :data:`SENSITIVITY`. The steps that runs generate from the expression
tables must equal them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import astuple, replace
from fractions import Fraction
from functools import partial

import numpy as np

from hrsync.model import FIELD, PARAM_INDEX, SENSITIVITY_EXPR, NeuronParams, field, point_kernel
from hrsync.sim import DivergenceError, PairConfig

_NAMES = ("a", "b", "c", "d", "xi", "I", "e", "f", "g", "m", "s", "h", "n", "k", "r", "l", "p")


def exact_params(params: NeuronParams) -> dict[str, Fraction]:
    return {name: Fraction(repr(getattr(params, name))) for name in _NAMES}


def exact_state(state) -> tuple[Fraction, ...]:
    values = state.as_tuple() if hasattr(state, "as_tuple") else tuple(state)
    return tuple(Fraction(repr(float(v))) for v in values)


def field_exact(state, params: NeuronParams) -> tuple[Fraction, ...]:
    x, y, z, w = exact_state(state)
    q = exact_params(params)
    return (
        q["a"] * y + q["b"] * x**2 - q["c"] * x**3 - q["d"] * z + q["xi"] * q["I"],
        q["e"] - q["f"] * x**2 - y - q["g"] * w,
        q["m"] * (-z + q["s"] * (x + q["h"])),
        q["n"] * (-q["k"] * w + q["r"] * (y + q["l"])),
    )


def dissipative_exact(state, params: NeuronParams) -> tuple[Fraction, ...]:
    x, y, z, w = exact_state(state)
    q = exact_params(params)
    return (
        q["b"] * x**2 - q["c"] * x**3 + q["xi"] * q["I"],
        q["e"] - y,
        q["m"] * q["s"] * q["h"] - q["m"] * z,
        q["n"] * q["r"] * q["l"] - q["n"] * q["k"] * w,
    )


def energy_exact(state, params: NeuronParams) -> Fraction:
    x, y, z, w = exact_state(state)
    q = exact_params(params)
    C = q["m"] * q["s"] * q["d"] - q["g"] * q["n"] * q["r"]
    return (q["p"] / q["a"]) * (
        Fraction(2, 3) * q["f"] * x**3
        + (C / q["a"]) * x**2
        + q["a"] * y**2
        + (q["d"] / (q["a"] * q["m"] * q["s"])) * C * z**2
        - 2 * q["d"] * y * z
        + 2 * q["g"] * x * w
    )


def energy_gradient_exact(state, params: NeuronParams) -> tuple[Fraction, ...]:
    x, y, z, w = exact_state(state)
    q = exact_params(params)
    C = q["m"] * q["s"] * q["d"] - q["g"] * q["n"] * q["r"]
    scale = 2 * q["p"] / q["a"]
    return (
        scale * (q["f"] * x**2 + (C / q["a"]) * x + q["g"] * w),
        scale * (q["a"] * y - q["d"] * z),
        scale * ((q["d"] / (q["a"] * q["m"] * q["s"])) * C * z - q["d"] * y),
        scale * (q["g"] * x),
    )


def energy_derivative_exact(state, params: NeuronParams) -> Fraction:
    grad = energy_gradient_exact(state, params)
    diss = dissipative_exact(state, params)
    return sum(g * d for g, d in zip(grad, diss))


def as_floats(values) -> np.ndarray:
    return np.array([float(v) for v in values])


def fd_gradient(func, state, step: float = 1e-6) -> np.ndarray:
    """Central finite difference of a scalar function ``func(x, y, z, w)``."""
    base = list(state)
    out = []
    for i in range(4):
        hi, lo = list(base), list(base)
        hi[i] += step
        lo[i] -= step
        out.append((func(*hi) - func(*lo)) / (2 * step))
    return np.array(out)


def fd_param_sensitivity(state, params: NeuronParams, which: str, step: float = 1e-6) -> np.ndarray:
    """Central finite difference of the field at ``state`` in one parameter."""
    hi = field(*state, astuple(replace(params, **{which: getattr(params, which) + step})))
    lo = field(*state, astuple(replace(params, **{which: getattr(params, which) - step})))
    return (as_floats(hi) - as_floats(lo)) / (2 * step)


def _sensitivity(target: str, x: float, y: float, z: float, w: float, P) -> float:
    return point_kernel(f"d_{target}", FIELD[:1], SENSITIVITY_EXPR[target][1])(x, y, z, w, P)


#: ``target -> (row, value(x, y, z, w, P))``, the per-point form of
#: ``SENSITIVITY_EXPR``: ``value`` is the one nonzero component of
#: ``d f / d target``, in row ``row``.
SENSITIVITY = {
    target: (row, partial(_sensitivity, target)) for target, (row, _) in SENSITIVITY_EXPR.items()
}


def rk4_step(f, state: tuple, t: float, dt: float) -> tuple:
    """One classical fourth-order Runge-Kutta step of ``d state/dt = f(state, t)``.

    ``state`` is a tuple of floats and ``f`` returns a sequence of the same
    length; stages are passed to ``f`` as lists. Each component follows the
    operation order of the vector form ``state + (dt/6)*(k1 + 2*(k2 + k3) + k4)``,
    so it is bit-identical to that form evaluated on float64 arrays. Raises
    ``DivergenceError`` if the result is not finite.
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


def coupled_derivative(joint, config: PairConfig, t: float) -> np.ndarray:
    """Joint derivative of the coupled pair at time ``t``.

    ``joint`` packs (pre_state, post_state, adapted parameter) as a flat
    9-vector. The receiver's first row gains ``K*(x1 - x2)``. The adaptation
    term ``-gain*s*e_row`` is zero before its start time or when no
    adaptation is configured.
    """
    x1, y1, z1, w1, x2, y2, z2, w2, q = joint = [float(v) for v in joint]
    adapt = config.adaptation
    target = adapt.target if adapt else "I"
    P_pre, P_post = astuple(config.pre), list(astuple(config.post))
    P_post[PARAM_INDEX[target]] = q
    dq = 0.0
    if adapt is not None and t >= adapt.start_time:
        row, sens = SENSITIVITY[target]
        dq = -adapt.gain * sens(x1, y1, z1, w1, P_pre) * (joint[4 + row] - joint[row])
    dx2, dy2, dz2, dw2 = field(x2, y2, z2, w2, P_post)
    d1 = field(x1, y1, z1, w1, P_pre)
    return np.array((*d1, dx2 + config.K * (x1 - x2), dy2, dz2, dw2, dq))
