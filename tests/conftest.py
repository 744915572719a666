"""Checks that hold after every test under ``tests/``."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """No test leaves a child process running or unreaped: every path that
    forks reaps its child, whatever the test made fail."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind ({'still running' if pid == 0 else 'unreaped'})")
