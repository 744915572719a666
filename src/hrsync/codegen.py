"""Compile the model's expression tables into straight-line Python functions.

The equations live once, as expression strings in :mod:`hrsync.model` and
:mod:`hrsync.energy`. :func:`compile_kernel` turns ``(target, expression)``
assignments into one function whose body is those assignments, in order.

Constants are folded without changing a single bit. A name bound in ``env``
is a constant of the run. An assignment, or a largest subexpression, that
uses only constants (such as ``xi*I`` in ``... - d*z + xi*I``) is evaluated
once and bound as a new constant. It is a node of the expression tree, so
the function computes the rest from the same intermediate values in the same
order. The function reads each constant as a local variable, through a
default argument: values never enter the source text.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Callable, Mapping, Sequence

__all__ = ["compile_kernel", "rename"]

_IDENT = re.compile(r"\b[A-Za-z_]\w*")


def rename(expr: str, names: Mapping[str, str]) -> str:
    """``expr`` with every identifier that ``names`` maps replaced."""
    return _IDENT.sub(lambda m: names.get(m[0], m[0]), expr)


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _evaluate(node: ast.expr, env: Mapping[str, object]):
    code = compile(ast.fix_missing_locations(ast.Expression(node)), "<hrsync table>", "eval")
    return eval(code, {"__builtins__": {}}, env)


class _Fold(ast.NodeTransformer):
    """Bind each largest subexpression that uses only constants (and at least
    one of them) as a new constant in ``env``. Called on a tree, it marks
    such operations in one bottom-up pass, then replaces them top down, so
    it takes time linear in the size of the tree."""

    def __init__(self, env: dict):
        self.env = env
        self.keys: dict[str, str] = {}
        self.foldable: set[ast.AST] = set()

    def __call__(self, tree: ast.AST) -> ast.AST:
        self.foldable.clear()
        self._mark(tree)
        return self.visit(tree)

    def _mark(self, node: ast.AST) -> tuple[bool, bool]:
        """Whether ``node`` names anything, and whether every name in it is
        a constant."""
        if isinstance(node, ast.Name):
            return True, node.id in self.env
        named, constant = False, True
        for child in ast.iter_child_nodes(node):
            child_named, child_constant = self._mark(child)
            named |= child_named
            constant &= child_constant
        if named and constant and isinstance(node, (ast.BinOp, ast.UnaryOp)):
            self.foldable.add(node)
        return named, constant

    def visit(self, node: ast.AST) -> ast.AST:
        if node in self.foldable:
            text = ast.unparse(node)
            if text not in self.keys:
                self.keys[text] = key = f"_c{len(self.keys)}"
                self.env[key] = _evaluate(node, self.env)
            return ast.copy_location(ast.Name(self.keys[text], ast.Load()), node)
        return self.generic_visit(node)


def compile_kernel(name: str, args: str, body: Sequence[tuple[str, str]], result: str,
                   env: Mapping[str, object] | None = None) -> Callable:
    """Compile ``def name(args): <body>; return result``.

    ``body`` holds ``(target, expression)`` assignments in evaluation order;
    a target may be a comma-separated list that unpacks a sequence. ``env``
    binds the run's constants and is not modified. Expressions and names
    come from the in-repo tables and validated parameter names only.
    """
    env = dict(env or {})
    fold = _Fold(env)
    lines, variables = [], set()
    for target, expr in body:
        tree = ast.parse(expr, mode="eval").body
        targets = {local.strip() for local in target.split(",")}
        if targets & env.keys():
            raise ValueError(f"{name}: constant {target!r} is assigned again")
        if target.isidentifier() and target not in variables and _names(tree) <= env.keys():
            env[target] = _evaluate(tree, env)
            continue
        variables |= targets
        lines.append(f"    {target} = {ast.unparse(fold(tree))}\n")
    lines.append(f"    return {ast.unparse(fold(ast.parse(result, mode='eval').body))}\n")
    used = sorted(set(_IDENT.findall("".join(lines))) & env.keys())
    defaults = "".join(f", {c}={c}" for c in used)
    source = f"def {name}({args}{defaults}):\n" + "".join(lines)
    env["__builtins__"] = {}
    exec(compile(source, f"<hrsync {name}>", "exec"), env)
    kernel = env[name]
    kernel.source = source
    return kernel
