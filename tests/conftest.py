"""Checks that hold after every test."""

from __future__ import annotations

import multiprocessing
import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail a test that leaves a child process running; the child is ended first."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"child processes left running after the test: {left}"


@pytest.fixture
def set_cores(monkeypatch):
    """set_cores(n) makes the package see n available cores, so workers.fork_map forks min(n, items) workers."""

    def set_to(cores: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)

    return set_to
