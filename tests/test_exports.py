"""Every name a module lists in ``__all__`` exists.

A stale entry would otherwise fail only on ``from module import *``.
"""

import importlib

import pytest

MODULES = ("hrsync", "hrsync.model", "hrsync.energy", "hrsync.sim", "hrsync.analysis")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    imported = importlib.import_module(module)
    assert imported.__all__
    for name in imported.__all__:
        assert hasattr(imported, name), f"{module}.{name}"
