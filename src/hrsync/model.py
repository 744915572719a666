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

The equations are data: :data:`FIELD` holds them once, as expression
strings, and every kernel that evaluates them is generated from it (see
:mod:`hrsync.codegen`). The per-point kernel :func:`field` takes the state and
the flat parameter values in :class:`NeuronParams` field order
(``dataclasses.astuple``), so an adapted parameter's live value is substituted
at its :data:`PARAM_INDEX`. The field is linear in every parameter and
``d f / d q`` has a single nonzero component; :data:`SENSITIVITY_EXPR` holds
that ``(row, expression)`` pair per adaptable parameter, and
:data:`SENSITIVITY` its per-point form.

All arithmetic is on dimensionless floats; the physical units quoted in the
field docs are carried as documentation only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass, fields, replace
from functools import cache, partial

from .codegen import compile_kernel

__all__ = [
    "ADAPTABLE_PARAMS",
    "CONSERVATIVE",
    "FIELD",
    "PARAM_INDEX",
    "SENSITIVITY",
    "SENSITIVITY_EXPR",
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


#: The model equations, the one table every field kernel is generated from:
#: ``(local, expression)`` assignments over the state ``x, y, z, w`` and the
#: :class:`NeuronParams` names, in evaluation order. ``dx`` to ``dw`` are the
#: rows of the field.
FIELD = (
    ("x2", "x*x"),
    ("dx", "a*y + b*x2 - c*x2*x - d*z + xi*I"),
    ("dy", "e - f*x2 - y - g*w"),
    ("dz", "m*(-z + s*(x + h))"),
    ("dw", "n*(-k*w + r*(y + l))"),
)

#: ``target -> (row, expression)``. The partial derivative of the field with
#: respect to each adaptable parameter has exactly one nonzero component:
#: ``expression`` (over the names of :data:`FIELD`) in row ``row``.
SENSITIVITY_EXPR = {
    "a": (0, "y"),
    "b": (0, "x2"),
    "c": (0, "-x2*x"),
    "d": (0, "-z"),
    "xi": (0, "I"),
    "I": (0, "xi"),
    "e": (1, "1.0"),
    "f": (1, "-x2"),
    "g": (1, "-w"),
    "m": (2, "-z + s*(x + h)"),
    "s": (2, "m*(x + h)"),
    "h": (2, "m*s"),
    "n": (3, "-k*w + r*(y + l)"),
    "k": (3, "-n*w"),
    "r": (3, "n*(y + l)"),
    "l": (3, "n*r"),
}

#: The conservative part of the field, everywhere orthogonal to the energy
#: gradient; the dissipative remainder is part of :data:`hrsync.energy.ENERGY`.
CONSERVATIVE = ("a*y - d*z", "-f*x*x - g*w", "m*s*x", "n*r*y")


@cache
def point_kernel(name: str, body: tuple, result: str):
    """``name(x, y, z, w, P)`` evaluating table assignments at one point, with
    the flat parameter values ``P`` unpacked to their names. Compiled on first
    use, so importing the package compiles nothing."""
    return compile_kernel(name, "x, y, z, w, P", ((", ".join(PARAM_INDEX), "P"), *body), result)


def field(x: float, y: float, z: float, w: float, P: Sequence[float]) -> tuple:
    """The model equations at (x, y, z, w) for the flat parameter values ``P``.

    Generated from :data:`FIELD`. Callers build ``astuple(params)`` once;
    a run that adapts a parameter passes a list holding its live value at the
    parameter's :data:`PARAM_INDEX`.
    """
    return point_kernel("field", FIELD, "(dx, dy, dz, dw)")(x, y, z, w, P)


def _sensitivity(target: str, x: float, y: float, z: float, w: float, P: Sequence[float]):
    return point_kernel(f"d_{target}", FIELD[:1], SENSITIVITY_EXPR[target][1])(x, y, z, w, P)


#: ``target -> (row, value(x, y, z, w, P))``, the per-point form of
#: :data:`SENSITIVITY_EXPR`, which :func:`param_sensitivity` reads.
SENSITIVITY = {
    target: (row, partial(_sensitivity, target)) for target, (row, _) in SENSITIVITY_EXPR.items()
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

    Closed form :data:`CONSERVATIVE`, (a*y - d*z, -f*x^2 - g*w, m*s*x, n*r*y);
    it is everywhere orthogonal to the energy gradient.
    """
    kernel = point_kernel("conservative", (), "(" + ", ".join(CONSERVATIVE) + ")")
    return StateDerivative(*kernel(*state.as_tuple(), astuple(params)))


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
