"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def two_cores(monkeypatch):
    """The map sees two cores, whatever the machine has; after the test no
    worker process is left, neither running nor unreaped."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
