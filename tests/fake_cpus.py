"""CPU-count and fork helpers for the share tests."""

import os

import pytest


def use_cpus(monkeypatch, k):
    """Make ``shares.usable_cpus`` see ``k`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def refuse_fork():
    raise AssertionError("os.fork called")


@pytest.fixture
def forks(monkeypatch):
    """The calls of ``os.fork``, which still forks."""
    fork, calls = os.fork, []

    def counted_fork():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return calls
