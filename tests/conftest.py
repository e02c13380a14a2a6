"""Shared test guards."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which this process still has a child, running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({f'pid {pid}' if pid else 'still running'})")
