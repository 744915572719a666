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
:mod:`hrsync.codegen`). The per-point kernels :func:`field` and
:func:`conservative` (from :data:`CONSERVATIVE`) take the state and the flat
parameter values in :class:`NeuronParams` field order
(``dataclasses.astuple``), so an adapted parameter's live value is substituted
at its :data:`PARAM_INDEX`. The field is linear in every parameter and
``d f / d q`` has a single nonzero component; :data:`SENSITIVITY_EXPR` holds
that ``(row, expression)`` pair per adaptable parameter, and :data:`PAIR`
the pair's coupling and adaptive law.

All arithmetic is on dimensionless floats; the physical units quoted in the
field docs are carried as documentation only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cache

from .codegen import compile_kernel

__all__ = [
    "ADAPTABLE_PARAMS",
    "CONSERVATIVE",
    "FIELD",
    "PAIR",
    "PARAM_INDEX",
    "SENSITIVITY_EXPR",
    "NeuronParams",
    "NeuronState",
    "conservative",
    "field",
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

#: Parameters the adaptive law may target. ``p`` is excluded: it does not
#: enter the vector field, so its sensitivity is identically zero.
ADAPTABLE_PARAMS: tuple[str, ...] = tuple(SENSITIVITY_EXPR)

#: The pair's coupling and adaptive law, added in this order after each
#: neuron's :data:`FIELD`. Neuron ``j``'s names take the suffix ``_j`` (0
#: sends, 1 receives). ``dq`` is the law for the adapted parameter's live
#: value, with ``neg_gain = -gain``: ``sens_0`` stands for its
#: :data:`SENSITIVITY_EXPR` at the sender and ``row_j`` for neuron ``j``'s
#: state in that row, names no parameter has.
PAIR = (
    ("dx_1", "dx_1 + K*(x_0 - x_1)"),
    ("dq", "neg_gain*sens_0*(row_1 - row_0)"),
)

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


def conservative(x: float, y: float, z: float, w: float, P: Sequence[float]) -> tuple:
    """The conservative part of the field at (x, y, z, w), generated from
    :data:`CONSERVATIVE`; it is everywhere orthogonal to the energy gradient."""
    return point_kernel("conservative", (), "(" + ", ".join(CONSERVATIVE) + ")")(x, y, z, w, P)

