"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import threading

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


def zipf_pareto_trace(seed, num_keys=400, length=4000, alpha=0.9,
                      shape=1.16, scale=64, max_size=50_000):
    """Zipf keys with Pareto sizes fixed per key, from one seeded
    ``numpy.random.Generator``: ``(keys, sizes)`` as int lists.

    Key ``k`` (rank ``k + 1``) is drawn with probability proportional
    to ``1 / (k + 1) ** alpha``; its size is ``(pareto(shape) + 1) *
    scale`` bytes, capped at *max_size*, so a few objects outweigh a
    small cache.
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.power(np.arange(1, num_keys + 1), alpha)
    keys = rng.choice(num_keys, size=length, p=weights / weights.sum())
    per_key = np.minimum((rng.pareto(shape, num_keys) + 1) * scale,
                         max_size).astype(np.int64)
    return keys.tolist(), per_key[keys].tolist()


def resized_zipf_pareto_trace(seed, change=0.1,
                              factors=(0.25, 0.5, 2, 4, 16),
                              max_size=50_000, **kwargs):
    """:func:`zipf_pareto_trace` whose objects change size between
    requests: before each request, with probability *change*, the
    key's current size is scaled by a factor drawn from *factors*
    (floored at 1 byte, capped at *max_size*); the new size sticks
    until the next change.
    """
    keys, sizes = zipf_pareto_trace(seed, max_size=max_size, **kwargs)
    rng = np.random.default_rng([seed, 1])
    current = {}
    resized = []
    for key, size in zip(keys, sizes):
        size = current.get(key, size)
        if rng.random() < change:
            size = max(1, min(int(size * rng.choice(factors)), max_size))
        current[key] = size
        resized.append(size)
    return keys, resized


# -- key-pattern families ------------------------------------------------
# Each draws *n* keys for a cache of *k* slots from a numpy generator;
# the worst-case bound and the generated cross-layer oracle share them.


def uniform(rng, k, n):
    return rng.integers(0, 3 * k + 1, n)


def zipf(rng, k, n):
    return (rng.zipf(1.2, n) - 1) % (4 * k + 1)


def hotspot(rng, k, n):
    """Three in four requests go to k // 2 + 1 hot keys."""
    hot = rng.integers(0, k // 2 + 1, n)
    cold = rng.integers(k, 5 * k + 1, n)
    return np.where(rng.random(n) < 0.75, hot, cold)


def bursty(rng, k, n):
    """Each key repeats for a burst of 1-8 requests."""
    keys = rng.integers(0, 3 * k + 1, n)
    bursts = rng.integers(1, 9, n)
    return np.repeat(keys, bursts)[:n]


def sequential(rng, k, n):
    """Scans of increasing keys from random starting points."""
    starts = rng.integers(0, 4 * k + 1, n // (k + 1) + 1)
    return np.concatenate([np.arange(s, s + k + 1) for s in starts])[:n]


def loop(rng, k, n):
    """A loop over k + 1 keys: LRU and FIFO miss on every request."""
    return np.arange(n) % (k + 1)


FAMILIES = {f.__name__: f for f in (uniform, zipf, hotspot, bursty,
                                    sequential, loop)}


class CountingLock:
    """A lock that counts its acquisitions into a shared tally."""

    def __init__(self, tally=None):
        self._lock = threading.Lock()
        self._tally = tally if tally is not None else [0]

    @property
    def acquisitions(self):
        return self._tally[0]

    def acquire(self, *args, **kwargs):
        self._tally[0] += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


class SoloLock(CountingLock):
    """A counting lock for single-threaded tests.

    With one thread, taking a lock that is already held can only mean a
    critical section kept it, so that fails the test at once instead of
    deadlocking it.
    """

    def acquire(self, *args, **kwargs):
        if self._lock.locked():
            raise AssertionError("lock taken while held: a critical "
                                 "section did not release it")
        return super().acquire(*args, **kwargs)


class Recorder(CacheListener):
    """Keeps every cache event as a ``(kind, key)`` pair, in order."""

    def __init__(self):
        self.events = []

    def on_admit(self, key, weight=1):
        self.events.append(("admit", key))

    def on_evict(self, key, weight=1):
        self.events.append(("evict", key))

    def on_hit(self, key):
        self.events.append(("hit", key))

    def on_promote(self, key):
        self.events.append(("promote", key))

    def on_ghost_hit(self, key):
        self.events.append(("ghost_hit", key))

    def count(self, kind):
        return sum(1 for event, _ in self.events if event == kind)
