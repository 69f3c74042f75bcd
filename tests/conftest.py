"""Shared fixtures."""

import multiprocessing

import pytest


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace ``multiprocessing.Pool`` by an in-process stand-in.

    Returns the list of pool sizes requested, so a test can check the worker
    count without starting any process.
    """
    sizes: list[int] = []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, items):
            return [fn(*item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    return sizes
