"""Compile the model's expression tables into straight-line Python functions.

The equations live once, as expression strings in :mod:`hrsync.model` and
:mod:`hrsync.energy`. :func:`compile_kernel` compiles one function from a
template of its body, whose fields it fills with ``(target, expression)``
assignments, in order, or with an expression.

Constants are folded without changing a single bit. A name bound in ``env``
is a constant of the run. An assignment, or a largest subexpression, that
uses only constants (such as ``xi*I`` in ``... - d*z + xi*I``) is evaluated
once and bound as a new constant. It is a node of the expression tree, so
the function computes the rest from the same intermediate values in the same
order. The function reads each constant as a local variable, through a
default argument: values never enter the source text. What folds depends
only on an expression's shape, its text with each name replaced by its
position and marked constant or not, so each shape is folded once.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Callable, Mapping, Sequence
from keyword import iskeyword

__all__ = ["compile_kernel", "rename"]

_IDENT = re.compile(r"\b[A-Za-z_]\w*")
_FIELD = re.compile(r"\{(\w+)\}")


def rename(expr: str, names: Mapping[str, str]) -> str:
    """``expr`` with every identifier that ``names`` maps replaced."""
    return _IDENT.sub(lambda m: names.get(m[0], m[0]), expr)


def _evaluate(expr: str, env: Mapping[str, object]):
    return eval(compile(expr, "<hrsync table>", "eval"), {"__builtins__": {}}, env)


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
                self.env[key] = _evaluate(text, self.env)
            return ast.copy_location(ast.Name(self.keys[text], ast.Load()), node)
        return self.generic_visit(node)


def compile_kernel(name: str, args: str, template: str,
                   sections: Mapping[str, str | Sequence[tuple[str, str]]],
                   env: Mapping[str, object] | None = None) -> Callable:
    """Compile ``def name(args):`` whose body is ``template``, indented a
    level less than in the function.

    A line that is a field ``{key}`` alone takes the ``(target,
    expression)`` assignments of ``sections[key]``, in evaluation order, at
    its indentation; a target may be a comma-separated list that unpacks a
    sequence. Any other field takes the expression ``sections[key]``.
    ``env`` binds the run's constants and is not modified. Expressions and
    names come from the in-repo tables and validated parameter names only.
    """
    env = dict(env or {})
    keys: dict[str, str] = {}  # text of a folded constant -> its name in env
    shapes: dict[str, tuple[str, dict[str, str]]] = {}  # -> folded text, its constants' keys

    def fold(expr: str) -> str:
        # the i-th distinct name becomes _k<i> if it is a constant, else _v<i>
        names = dict.fromkeys(n for n in _IDENT.findall(expr) if not iskeyword(n))
        slots = {n: f"_{'k' if n in env else 'v'}{i}" for i, n in enumerate(names)}
        shape = rename(expr, slots)
        if shape not in shapes:
            folder = _Fold({slot: env[n] for n, slot in slots.items() if n in env})
            text = ast.unparse(folder(ast.parse(shape, mode="eval").body))
            shapes[shape] = text, folder.keys
        text, constants = shapes[shape]
        back = {slot: n for n, slot in slots.items()}
        for sub, key in constants.items():
            sub = rename(sub, back)
            if sub not in keys:
                keys[sub] = f"_c{len(keys)}"
                env[keys[sub]] = _evaluate(sub, env)
            back[key] = keys[sub]
        return rename(text, back)

    lines, variables = [], set()
    for line in template.splitlines():
        indent = "    " + line[: len(line) - len(line.lstrip())]
        section = _FIELD.fullmatch(line.strip())
        if not section:
            lines.append(f"    {_FIELD.sub(lambda m: fold(sections[m[1]]), line)}\n")
            continue
        for target, expr in sections[section[1]]:
            targets = {local.strip() for local in target.split(",")}
            if targets & env.keys():
                raise ValueError(f"{name}: constant {target!r} is assigned again")
            if (target.isidentifier() and target not in variables
                    and set(_IDENT.findall(expr)) <= env.keys()):
                env[target] = _evaluate(expr, env)
                continue
            variables |= targets
            lines.append(f"{indent}{target} = {fold(expr)}\n")
    used = sorted(set(_IDENT.findall("".join(lines))) & env.keys())
    defaults = "".join(f", {c}={c}" for c in used)
    source = f"def {name}({args}{defaults}):\n" + "".join(lines)
    env["__builtins__"] = {}
    exec(compile(source, f"<hrsync {name}>", "exec"), env)
    kernel = env[name]
    kernel.source = source
    return kernel
