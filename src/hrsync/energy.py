"""Energy function of the four-variable neuron and its trajectory derivative.

Each state carries a scalar energy

    H = (p/a) * ( (2/3)*f*x^3 + (C/a)*x^2 + a*y^2
                  + (d/(a*m*s))*C*z^2 - 2*d*y*z + 2*g*x*w ),
    C = m*s*d - g*n*r,

whose gradient is orthogonal to the conservative part of the vector field.
The net energy exchanged with the environment per unit time is therefore the
inner product of the gradient with the dissipative part alone:

    Hdot = grad(H) . f_d.

``Hdot`` is computed exactly in that inner-product form, never from an
expanded polynomial, so the identity ``Hdot == grad . f_d`` holds to the last
bit by construction. With the conventional negative conductance ``p`` the
spike's repolarization phase shows up as a demand of energy (Hdot > 0).

The table :data:`ENERGY` holds all of it once, as expression strings. The
per-point kernel :func:`energy_terms` is generated from it and takes the flat
parameter values that :func:`hrsync.model.field` takes, so a live adapted
parameter is substituted the same way in both; the integrator generates its
sample row from the same table. The dissipative part is part of the table;
:func:`hrsync.model.dissipative_field` reads it from there.

Division guards: the energy divides by ``a`` and ``m*s``. A parameter record
with either at zero is rejected when it is constructed, and a run that adapts
one of them stops with a divergence error before it reaches zero.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import astuple, dataclass

import numpy as np

from .model import NeuronParams, NeuronState, point_kernel

__all__ = [
    "ENERGY",
    "EnergyReport",
    "energy",
    "energy_gradient",
    "energy_derivative",
    "energy_report",
    "energy_terms",
    "POLE_PARAMS",
]

#: Parameters whose zero is a pole of the energy, which divides by ``a`` and
#: ``m*s``.
POLE_PARAMS = ("a", "m", "s")


@dataclass(frozen=True)
class EnergyReport:
    """Energy bookkeeping at a single state.

    ``Hdot`` equals ``gradient . dissipative_field`` exactly; the report is
    produced by :func:`energy_report`, which computes it that way.
    """

    H: float
    Hdot: float
    gradient: tuple[float, float, float, float]


#: The energy, the one table every energy kernel is generated from:
#: ``(local, expression)`` assignments over the names of
#: :data:`hrsync.model.FIELD`, in evaluation order. The six derived constants
#: come first; ``gx`` to ``gw`` are the gradient, ``d1`` to ``d4`` the
#: dissipative part of the field, and ``Hdot`` their inner product.
ENERGY = (
    ("ms", "m*s"),
    ("cc", "ms*d - g*n*r"),
    ("cc_a", "cc/a"),
    ("dams_cc", "d/(a*m*s)*cc"),
    ("pa", "p/a"),
    ("two_pa", "2.0*pa"),
    ("x2", "x*x"),
    ("H", "pa*((2.0/3.0)*f*x2*x + cc_a*x2 + a*y*y + dams_cc*z*z - 2.0*d*y*z + 2.0*g*x*w)"),
    ("gx", "two_pa*(f*x2 + cc_a*x + g*w)"),
    ("gy", "two_pa*(a*y - d*z)"),
    ("gz", "two_pa*(dams_cc*z - d*y)"),
    ("gw", "two_pa*(g*x)"),
    ("d1", "b*x2 - c*x2*x + xi*I"),
    ("d2", "e - y"),
    ("d3", "ms*h - m*z"),
    ("d4", "n*r*l - n*k*w"),
    ("Hdot", "gx*d1 + gy*d2 + gz*d3 + gw*d4"),
)


def energy_terms(x: float, y: float, z: float, w: float, P: Sequence[float]):
    """``(H, Hdot, gradient, f_d)`` at (x, y, z, w) for the flat parameter
    values ``P`` (``dataclasses.astuple(params)``), generated from
    :data:`ENERGY`.

    ``f_d`` is the dissipative part of the field, and ``Hdot`` is the inner
    product of the gradient with it.
    """
    kernel = point_kernel("energy_terms", ENERGY, "(H, Hdot, (gx, gy, gz, gw), (d1, d2, d3, d4))")
    return kernel(x, y, z, w, P)


def energy(state: NeuronState, params: NeuronParams) -> float:
    """Energy of the neuron at ``state``."""
    H, _, _, _ = energy_terms(*state.as_tuple(), astuple(params))
    return H


def energy_gradient(state: NeuronState, params: NeuronParams) -> np.ndarray:
    """Gradient of the energy with respect to (x, y, z, w).

    Closed form, scaled by 2p/a:

        ( f*x^2 + (C/a)*x + g*w,  a*y - d*z,  (d/(a*m*s))*C*z - d*y,  g*x )
    """
    _, _, grad, _ = energy_terms(*state.as_tuple(), astuple(params))
    return np.array(grad)


def energy_derivative(state: NeuronState, params: NeuronParams) -> float:
    """Energy exchanged with the environment per unit time at ``state``.

    Equals ``energy_gradient(state) . dissipative_field(state)``; its long
    term average vanishes on the free attractor and is nonzero for a neuron
    held off its natural attractor by a coupling device.
    """
    _, Hdot, _, _ = energy_terms(*state.as_tuple(), astuple(params))
    return Hdot


def energy_report(state: NeuronState, params: NeuronParams) -> EnergyReport:
    """Bundle ``H``, ``Hdot`` and the gradient in one evaluation."""
    H, Hdot, grad, _ = energy_terms(*state.as_tuple(), astuple(params))
    return EnergyReport(H=H, Hdot=Hdot, gradient=grad)
