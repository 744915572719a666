"""Independent reference computations used by the tests.

Everything here re-derives expected values from scratch in exact rational
arithmetic (all canonical constants are finite decimals), staying deliberately
separate from the library's float kernels. Central finite differences are
provided for derivative cross-checks.
"""

from __future__ import annotations

from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np

from hrsync.model import NeuronParams, field

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
