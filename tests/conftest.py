"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import CacheListener
from repro.traces.synthetic import zipf_trace
from repro.traces.trace import Trace


@pytest.fixture
def rng():
    """A fresh deterministic numpy RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def zipf_keys(rng):
    """A 5000-request Zipf key list over 500 objects (list of ints)."""
    return zipf_trace(500, 5000, 1.0, rng).tolist()


@pytest.fixture
def small_trace(rng):
    """A small Trace object for simulator-level tests."""
    keys = zipf_trace(300, 3000, 0.9, rng)
    return Trace(name="test-zipf", keys=keys, family="test", group="block")


def drive(policy, keys):
    """Feed keys through a policy; returns the hit/miss boolean list."""
    return [policy.request(key) for key in keys]


class Recorder(CacheListener):
    """Keeps every cache event as a ``(kind, key)`` pair, in order."""

    def __init__(self):
        self.events = []

    def on_admit(self, key):
        self.events.append(("admit", key))

    def on_evict(self, key):
        self.events.append(("evict", key))

    def on_hit(self, key):
        self.events.append(("hit", key))

    def on_promote(self, key):
        self.events.append(("promote", key))

    def on_ghost_hit(self, key):
        self.events.append(("ghost_hit", key))

    def count(self, kind):
        return sum(1 for event, _ in self.events if event == kind)
