"""CPU-count and fork helpers for the share tests."""

import os
import sys

import pytest

from contina import shares


def use_cpus(monkeypatch, k):
    """Make ``shares.usable_cpus`` see ``k`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def refuse_fork():
    raise AssertionError("os.fork called")


@pytest.fixture
def forks(monkeypatch):
    """The calls of ``os.fork``, which still forks: each is the name of the
    function that called ``shares.run_shares`` for it."""
    fork, calls = os.fork, []

    def counted_fork():
        frame = sys._getframe(1)
        while frame.f_code.co_filename == shares.__file__:
            frame = frame.f_back
        calls.append(frame.f_code.co_name)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return calls
