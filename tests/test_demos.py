"""The demos import only names that exist.

Each demo runs for minutes and writes files, so it is parsed, not run: every
name a demo imports from ``hrsync`` must be found where it looks.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def hrsync_imports(path):
    """``(module, name)`` per name the demo imports from ``hrsync``; ``name``
    is None for a plain ``import hrsync...``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "hrsync":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "hrsync")


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_exist(path):
    imports = list(hrsync_imports(path))
    assert imports, f"{path.name} imports nothing from hrsync"
    for module, name in imports:
        imported = importlib.import_module(module)
        if name is not None and not hasattr(imported, name):
            # ``from package import submodule`` imports it; anything else fails
            importlib.import_module(f"{module}.{name}")
