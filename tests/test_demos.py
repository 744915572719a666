"""The demos import only names that exist, and the sweep demo's config runs
acceptance criterion 7's protocol.

Each demo runs for minutes and writes files, so it is parsed, not run: every
name a demo imports from ``hrsync`` must be found where it looks. The config
file is resolved by the command line tool with the sweep replaced by a
recorder, so nothing integrates.
"""

import ast
import importlib
from dataclasses import replace
from pathlib import Path

import pytest

from hrsync import cli
from hrsync.analysis import SweepSummary
from hrsync.sim import AdaptationSpec, SimSpec

from test_acceptance import (
    DEFAULT_CONFIG,
    SWEEP_ADAPT_AT,
    SWEEP_POST_WINDOW,
    SWEEP_PRE_WINDOW,
    SWEEP_T_END,
)

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


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


def test_coupling_sweep_config_is_criterion_7(monkeypatch, tmp_path):
    calls = []

    def record(k_values, spec, config, **windows):
        calls.append((k_values, spec, config, windows))
        return [SweepSummary(K, *[0.0] * 6) for K in k_values]

    monkeypatch.setattr(cli, "sweep_K", record)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(DEMO_DIR / "coupling_sweep.conf"), "--out", str(out)]
    assert cli.main(argv) == 0
    ((k_values, spec, config, windows),) = calls
    assert k_values == (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    assert spec == SimSpec(dt=0.01, t_end=SWEEP_T_END, record_every=10)
    assert config == replace(DEFAULT_CONFIG, adaptation=AdaptationSpec(start_time=SWEEP_ADAPT_AT))
    assert windows == {"pre_window": SWEEP_PRE_WINDOW, "post_window": SWEEP_POST_WINDOW}
    assert out.with_suffix(".svg").is_file()  # plot = true
