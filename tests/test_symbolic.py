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
from hrsync.model import CONSERVATIVE, FIELD, PAIR, PARAM_INDEX, SENSITIVITY_EXPR  # noqa: E402

STATE = sympy.symbols("x y z w")
SYMBOLS = {str(s): s for s in (*STATE, *sympy.symbols(list(PARAM_INDEX)))}


def parse(expr, names):
    return parse_expr(expr, local_dict=names,
                      transformations=standard_transformations + (rationalize,))


def evaluate(table, names=SYMBOLS):
    names = dict(names)
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


#: The parameters the energy depends on.
ENERGY_PARAMS = {str(sym) for sym in E["H"].free_symbols} - set("xyzw")


def suffixed(j):
    """Neuron ``j``'s copy of the table names: each symbol takes the suffix ``_j``."""
    return {sym: sympy.Symbol(f"{name}_{j}") for name, sym in SYMBOLS.items()}


def pair(target):
    """The names of the coupled pair adapting ``target``: every name of
    :data:`FIELD` and :data:`ENERGY` per neuron, with the suffix ``_j``, and
    the rows of :data:`PAIR` evaluated over them. The receiver's
    ``target_1`` is the live adapted value."""
    names = {"K": sympy.Symbol("K"), "neg_gain": sympy.Symbol("neg_gain")}
    for j in (0, 1):
        copy = suffixed(j)
        names.update({f"{name}_{j}": value.xreplace(copy) for name, value in {**F, **E}.items()})
    row, expr = SENSITIVITY_EXPR[target]
    names["sens_0"] = parse(expr, F).xreplace(suffixed(0))
    names["row_0"], names["row_1"] = (names[f"{'xyzw'[row]}_{j}"] for j in (0, 1))
    return evaluate(PAIR, names)


@pytest.mark.parametrize("target", list(SENSITIVITY_EXPR))
def test_law_row_descends_the_sender_sensitivity(target):
    # dq/dt = -gain * sum_l (d f_l / d q at the sender) * (post_l - pre_l), neg_gain = -gain
    names = pair(target)
    law = names["neg_gain"] * sum(
        sympy.diff(component, SYMBOLS[target]).xreplace(suffixed(0))
        * (names[f"{v}_1"] - names[f"{v}_0"])
        for component, v in zip(f, "xyzw")
    )
    assert vanishes(names["dq"] - law)


@pytest.mark.parametrize("target", list(SENSITIVITY_EXPR))
def test_receiver_energy_ledger(target):
    # along the coupled field, dH2/dt = Hdot2 + gx2*K*(x1 - x2) + dH2/dq * dq/dt
    names = pair(target)
    receiver = suffixed(1)
    H2 = names["H_1"]
    rates = [names[f"d{v}_1"] for v in "xyzw"]
    along = sum(sympy.diff(H2, v.xreplace(receiver)) * rate for v, rate in zip(STATE, rates))
    coupling = names["gx_1"] * names["K"] * (names["x_0"] - names["x_1"])
    assert vanishes(along - (names["Hdot_1"] + coupling))
    # the adapted parameter's term vanishes exactly when the energy does not contain it
    adapted = sympy.diff(H2, SYMBOLS[target].xreplace(receiver)) * names["dq"]
    assert vanishes(adapted) == (target not in ENERGY_PARAMS)


def test_the_energy_contains_half_the_targets():
    assert len(set(SENSITIVITY_EXPR) - ENERGY_PARAMS) == 8
