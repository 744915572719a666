"""Property test of the command line boundary: hostile settings from a fixed
pool, as config lines and as flags, never crash the tool.

Every run is in process. The base config keeps each valid run to at most
100 RK4 steps (``dt = 0.01``, ``t_end = 1``); no token in the pool lengthens a
run that passes validation, since each one either fails it or shrinks the
step count (``dt = t_end = 1e308`` is one step).
"""

import argparse
import dataclasses
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hrsync import fork  # noqa: E402
from hrsync.cli import (  # noqa: E402
    EXIT_DIVERGENCE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    build_parser,
    main,
)

BASE_LINES = ("dt = 0.01", "t_end = 1", "adapt_at = 0.5", "k_list = 1")

#: Values no setting should choke on: non-finite, negative, zero, extreme,
#: empty, non-numeric and a three-component state.
TOKENS = ("nan", "inf", "-1", "0", "1e308", "1e-320", "", "abc", "1,2,3")

#: Every config key but ``out``, plus per-neuron overrides and an unknown key.
KEYS = tuple(f.name for f in dataclasses.fields(RunConfig)
             if f.name != "out" and not f.name.endswith("_overrides"))
KEYS += ("post.p", "pre.a", "no_such_key")

(_SUBCOMMANDS,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]


def flags(command, kind):
    """Long flags of one subcommand with the given argparse action kind,
    except ``--config`` and ``--out``, which the test sets itself."""
    return [action.option_strings[0] for action in _SUBCOMMANDS[command]._actions
            if type(action) is kind and action.dest not in ("config", "out")]


config_lines = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(KEYS), st.sampled_from(TOKENS)).map(" = ".join),
        st.just("adapt_target = p"),
        # a one-step run at an extreme step size
        st.sampled_from(TOKENS).map(lambda v: f"dt = {v}\nt_end = {v}"),
    ),
    max_size=3,
)


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(flags(command, argparse._StoreAction)), max_size=2)):
        argv += [flag, draw(st.sampled_from(TOKENS))]
    switches = flags(command, argparse._StoreConstAction)
    argv += draw(st.lists(st.sampled_from(switches), max_size=2, unique=True))
    return argv, draw(config_lines)


@settings(max_examples=200, deadline=None)
@given(invocations())
def test_hostile_settings_exit_cleanly(invocation):
    argv, lines = invocation
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        # one worker: the sweep runs in process
        patch.setattr(fork, "cores", lambda: 1)
        config = Path(tmp) / "run.cfg"
        config.write_text("".join(line + "\n" for line in (*BASE_LINES, *lines)), encoding="utf-8")
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        try:
            code = main([*argv, "--config", str(config), "--out", str(out_dir / "run.csv")])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DIVERGENCE, EXIT_IO)
        written = sorted(path.name for path in out_dir.iterdir())
        if code == EXIT_OK:
            assert "run.csv" in written
        else:
            assert written == []
