"""Symbolic checks of the expression tables every kernel is generated from.

The tables are read as exact rational expressions, independently of the
float kernels and of the spot checks in ``oracles.py``.
"""

import pytest

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import (  # noqa: E402
    parse_expr,
    rationalize,
    standard_transformations,
)

from hrsync.energy import ENERGY  # noqa: E402
from hrsync.model import CONSERVATIVE, FIELD, PARAM_INDEX, SENSITIVITY_EXPR  # noqa: E402

STATE = sympy.symbols("x y z w")
SYMBOLS = {str(s): s for s in (*STATE, *sympy.symbols(list(PARAM_INDEX)))}


def parse(expr, names):
    return parse_expr(expr, local_dict=names,
                      transformations=standard_transformations + (rationalize,))


def evaluate(table):
    names = dict(SYMBOLS)
    for local, expr in table:
        names[local] = parse(expr, names)
    return names


F = evaluate(FIELD)
E = evaluate(ENERGY)
f = [F[row] for row in ("dx", "dy", "dz", "dw")]
f_d = [E[row] for row in ("d1", "d2", "d3", "d4")]
grad = [E[row] for row in ("gx", "gy", "gz", "gw")]
f_c = [parse(expr, SYMBOLS) for expr in CONSERVATIVE]


def vanishes(expr):
    return sympy.cancel(sympy.expand(expr)) == 0


def test_gradient_is_the_gradient_of_H():
    for g, v in zip(grad, STATE):
        assert vanishes(sympy.diff(E["H"], v) - g)


def test_conservative_part_is_orthogonal_to_the_gradient():
    assert vanishes(sum(g * c for g, c in zip(grad, f_c)))


def test_dissipative_and_conservative_parts_reassemble_the_field():
    for d, c, full in zip(f_d, f_c, f):
        assert vanishes(d + c - full)


def test_energy_derivative_is_gradient_dot_dissipative_part():
    assert vanishes(E["Hdot"] - sum(g * d for g, d in zip(grad, f_d)))


@pytest.mark.parametrize("target", list(SENSITIVITY_EXPR))
def test_sensitivity_is_the_partial_derivative(target):
    row, expr = SENSITIVITY_EXPR[target]
    want = [0, 0, 0, 0]
    want[row] = parse(expr, F)
    for component, expected in zip(f, want):
        assert vanishes(sympy.diff(component, SYMBOLS[target]) - expected)
