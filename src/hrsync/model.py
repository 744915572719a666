"""Four-variable Hindmarsh-Rose neuron: parameters, state, and vector field.

The model couples a fast membrane potential ``x``, a fast recovery voltage
``y``, a slow current ``z`` and an even slower current ``w``:

    dx/dt = a*y + b*x^2 - c*x^3 - d*z + xi*I
    dy/dt = e - f*x^2 - y - g*w
    dz/dt = m*(-z + s*(x + h))
    dw/dt = n*(-k*w + r*(y + l))

The recovery offset in the ``w`` equation is the parameter ``l``; using a
literal 1 there would break the exact splitting of the field into a
conservative part (orthogonal to the energy gradient) and a dissipative
remainder, which is what the :mod:`hrsync.energy` module relies on.

One kernel, :func:`field`, evaluates the equations from the state and the
flat parameter values in :class:`NeuronParams` field order
(``dataclasses.astuple``), so an adapted parameter's live value is substituted
at its :data:`PARAM_INDEX`. The field is linear in every parameter and
``d f / d q`` has a single nonzero component; :data:`SENSITIVITY` holds that
``(row, value)`` pair per adaptable parameter.

All arithmetic is on dimensionless floats; the physical units quoted in the
field docs are carried as documentation only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass, fields, replace

__all__ = [
    "ADAPTABLE_PARAMS",
    "PARAM_INDEX",
    "SENSITIVITY",
    "NeuronParams",
    "NeuronState",
    "StateDerivative",
    "conservative_field",
    "dissipative_field",
    "field",
    "param_sensitivity",
    "vector_field",
]


@dataclass(frozen=True)
class NeuronParams:
    """Constants of the neuron model plus the energy-scale conductance ``p``.

    ``p`` only sets the scale (and sign) of the energy function; it does not
    enter the equations of motion and therefore cannot be adapted.
    """

    a: float  # dimensionless, gain of y in the x equation
    b: float  # 1/mV
    c: float  # 1/mV^2
    d: float  # MOhm
    xi: float  # MOhm, converts the external current I to a voltage rate
    I: float  # external current, arbitrary current units
    e: float  # mV
    f: float  # 1/mV
    g: float  # MOhm
    m: float  # rate of the slow current z
    s: float  # uS
    h: float  # mV
    n: float  # rate of the slower current w
    k: float  # dimensionless
    r: float  # uS
    l: float  # mV, recovery offset in the w equation
    p: float  # conductance (S) setting the energy scale; negative by convention

    def __post_init__(self) -> None:
        for fld in fields(self):
            value = getattr(self, fld.name)
            if not math.isfinite(value):
                raise ValueError(f"parameter {fld.name!r} must be finite, got {value!r}")
        # a and m*s appear as divisors in the energy function
        if self.a == 0.0:
            raise ValueError("parameter 'a' must be nonzero")
        if self.m * self.s == 0.0:
            raise ValueError("product m*s must be nonzero")

    @classmethod
    def canonical(cls, I: float = 3.024) -> "NeuronParams":
        """Reference parameter set; ``I=3.024`` gives chaotic spiking-bursting.

        ``I=0.85`` gives a slow burster: from the default start it spikes
        briefly, rests near ``x = -1.3`` while its slow currents relax, and
        from ``t ~ 2600`` bursts about every 300 time units.
        """
        return cls(
            a=1.0,
            b=3.0,
            c=1.0,
            d=0.99,
            xi=1.0,
            I=I,
            e=1.01,
            f=5.0128,
            g=0.0278,
            m=0.00215,
            s=3.966,
            h=1.605,
            n=0.0009,
            k=0.9573,
            r=3.0,
            l=1.619,
            p=-1.0,
        )

    def with_current(self, I: float) -> "NeuronParams":
        """Copy of this parameter set with the external current replaced."""
        return replace(self, I=I)


@dataclass(frozen=True)
class NeuronState:
    """Phase-space point (x, y, z, w)."""

    x: float  # membrane potential, mV
    y: float  # fast recovery voltage, mV
    z: float  # slow current
    w: float  # slower current

    def __post_init__(self) -> None:
        for name in ("x", "y", "z", "w"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"state component {name!r} must be finite")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.z, self.w)

    @classmethod
    def from_sequence(cls, values) -> "NeuronState":
        x, y, z, w = values
        return cls(float(x), float(y), float(z), float(w))


@dataclass(frozen=True)
class StateDerivative:
    """Time derivative of a :class:`NeuronState`, per unit dimensionless time."""

    dx: float
    dy: float
    dz: float
    dw: float

    def __post_init__(self) -> None:
        for name in ("dx", "dy", "dz", "dw"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"derivative component {name!r} must be finite")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.dx, self.dy, self.dz, self.dw)


#: Position of each parameter in the flat tuple ``dataclasses.astuple(params)``
#: that the kernels take. It follows the field order of :class:`NeuronParams`,
#: so ``p`` comes last.
PARAM_INDEX: dict[str, int] = {fld.name: i for i, fld in enumerate(fields(NeuronParams))}


def field(x: float, y: float, z: float, w: float, P: Sequence[float]) -> tuple:
    """The model equations at (x, y, z, w) for the flat parameter values ``P``.

    This is the single source of the equations. Callers build
    ``astuple(params)`` once per run; a run that adapts a parameter passes a
    list holding its live value at the parameter's :data:`PARAM_INDEX`.
    """
    a, b, c, d, xi, I, e, f, g, m, s, h, n, k, r, l, p = P
    x2 = x * x
    return (
        a * y + b * x2 - c * x2 * x - d * z + xi * I,
        e - f * x2 - y - g * w,
        m * (-z + s * (x + h)),
        n * (-k * w + r * (y + l)),
    )


_XI, _I, _M, _S, _H, _N, _K, _R, _L = (PARAM_INDEX[name] for name in "xi I m s h n k r l".split())

#: ``target -> (row, value(x, y, z, w, P))``. The partial derivative of the
#: field with respect to each adaptable parameter has exactly one nonzero
#: component: ``value`` in row ``row``. The adaptive law and
#: :func:`param_sensitivity` both read this table.
SENSITIVITY = {
    "a": (0, lambda x, y, z, w, P: y),
    "b": (0, lambda x, y, z, w, P: x * x),
    "c": (0, lambda x, y, z, w, P: -x * x * x),
    "d": (0, lambda x, y, z, w, P: -z),
    "xi": (0, lambda x, y, z, w, P: P[_I]),
    "I": (0, lambda x, y, z, w, P: P[_XI]),
    "e": (1, lambda x, y, z, w, P: 1.0),
    "f": (1, lambda x, y, z, w, P: -x * x),
    "g": (1, lambda x, y, z, w, P: -w),
    "m": (2, lambda x, y, z, w, P: -z + P[_S] * (x + P[_H])),
    "s": (2, lambda x, y, z, w, P: P[_M] * (x + P[_H])),
    "h": (2, lambda x, y, z, w, P: P[_M] * P[_S]),
    "n": (3, lambda x, y, z, w, P: -P[_K] * w + P[_R] * (y + P[_L])),
    "k": (3, lambda x, y, z, w, P: -P[_N] * w),
    "r": (3, lambda x, y, z, w, P: P[_N] * (y + P[_L])),
    "l": (3, lambda x, y, z, w, P: P[_N] * P[_R]),
}

#: Parameters the adaptive law may target. ``p`` is excluded: it does not
#: enter the vector field, so its sensitivity is identically zero.
ADAPTABLE_PARAMS: tuple[str, ...] = tuple(SENSITIVITY)


def vector_field(state: NeuronState, params: NeuronParams) -> StateDerivative:
    """Right-hand side of the equations of motion at ``state``."""
    return StateDerivative(*field(*state.as_tuple(), astuple(params)))


def dissipative_field(state: NeuronState, params: NeuronParams) -> StateDerivative:
    """Dissipative part of the field: the component responsible for the
    neuron's energy exchange with its environment.

    f_d = (b*x^2 - c*x^3 + xi*I, e - y, m*s*h - m*z, n*r*l - n*k*w), taken
    from the energy kernel, which folds it into ``Hdot = grad(H) . f_d``.
    """
    from .energy import energy_terms  # the energy module builds on this one

    return StateDerivative(*energy_terms(*state.as_tuple(), astuple(params))[3])


def conservative_field(state: NeuronState, params: NeuronParams) -> StateDerivative:
    """Conservative remainder ``vector_field - dissipative_field``.

    Closed form (a*y - d*z, -f*x^2 - g*w, m*s*x, n*r*y); it is everywhere
    orthogonal to the energy gradient.
    """
    x, y, z, w = state.as_tuple()
    return StateDerivative(
        params.a * y - params.d * z,
        -params.f * x * x - params.g * w,
        params.m * params.s * x,
        params.n * params.r * y,
    )


def param_sensitivity(
    state: NeuronState, params: NeuronParams, which: str
) -> StateDerivative:
    """Partial derivative of the vector field with respect to one parameter.

    ``which`` must name a :class:`NeuronParams` field other than ``p``. The
    value comes from :data:`SENSITIVITY`, the table the adaptive law reads;
    for ``which="I"`` it is the constant (xi, 0, 0, 0).
    """
    if which not in SENSITIVITY:
        raise ValueError(
            f"unknown or non-adaptable parameter {which!r}; "
            f"expected one of {ADAPTABLE_PARAMS}"
        )
    row, value = SENSITIVITY[which]
    out = [0.0, 0.0, 0.0, 0.0]
    out[row] = value(*state.as_tuple(), astuple(params))
    return StateDerivative(*out)
