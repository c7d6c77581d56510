"""Listeners observe a policy; they must never steer it.

Every listener call sits behind ``if self._listeners:``, so a policy
runs different code with and without one.  This property pins both
paths to the same behaviour for every unsized registry policy, and the
event stream to the policy's own counters.
"""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import OfflinePolicy
from repro.core.qd import QDCache
from repro.policies.lru import LRU
from repro.policies.registry import REGISTRY, make
from tests.conftest import Recorder


def replay(name, capacity, keys, listener=None):
    policy = make(name, capacity)
    if isinstance(policy, OfflinePolicy):
        policy.prepare(keys)
    if listener is not None:
        policy.add_listener(listener)
    return policy, [policy.request(key) for key in keys]


@pytest.mark.parametrize("name", sorted(REGISTRY))
@given(keys=st.lists(st.integers(0, 40), min_size=1, max_size=300),
       capacity=st.integers(2, 40))
@settings(max_examples=20, deadline=None)
def test_listener_does_not_change_behaviour(name, keys, capacity):
    capacity = max(capacity, REGISTRY[name].min_capacity)
    plain, plain_mask = replay(name, capacity, keys)
    recorder = Recorder()
    observed, observed_mask = replay(name, capacity, keys, recorder)

    universe = set(keys)
    resident = {key for key in universe if key in observed}
    assert observed_mask == plain_mask
    assert resident == {key for key in universe if key in plain}
    assert observed.promotion_count == plain.promotion_count

    stats = observed.stats
    assert recorder.count("hit") == stats.hits
    assert recorder.count("admit") == stats.misses
    assert recorder.count("promote") == stats.promotions

    # Admits and evicts pair up into tenures: nothing is evicted that
    # was not admitted, and what is left open is the final contents.
    open_tenures = set()
    for kind, key in recorder.events:
        if kind == "admit":
            assert key not in open_tenures
            open_tenures.add(key)
        elif kind == "evict":
            assert key in open_tenures, f"{key!r} evicted, never admitted"
            open_tenures.remove(key)
    assert recorder.count("evict") == \
        recorder.count("admit") - len(observed)
    assert open_tenures == resident

    if isinstance(observed, QDCache):
        # The wrapper detaches its eviction forwarder with its last
        # listener: the main cache is unobserved again.
        observed.remove_listener(recorder)
        assert observed.main._listeners == []
        seen = len(recorder.events)
        for key in keys:
            observed.request(key)
        assert len(recorder.events) == seen


def test_listener_on_qd_around_qd():
    """A QD wrapper whose main cache is another QD wrapper registers its
    forwarder there while holding the forwarder lock; registering must
    not deadlock, and the stacked forwarders must deliver every
    eviction once."""
    cache = QDCache(50, lambda c: QDCache(c, LRU))
    recorder = Recorder()
    worker = threading.Thread(target=cache.add_listener, args=(recorder,),
                              daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "add_listener deadlocked"

    rng = random.Random(7)
    keys = [int(rng.paretovariate(0.8)) % 400 for _ in range(5000)]
    for key in keys:
        cache.request(key)
    stats = cache.stats
    assert recorder.count("hit") == stats.hits
    assert recorder.count("admit") == stats.misses
    assert recorder.count("promote") == stats.promotions
    assert recorder.count("evict") == stats.misses - len(cache)
    assert recorder.count("evict") > 0

    worker = threading.Thread(target=cache.remove_listener,
                              args=(recorder,), daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "remove_listener deadlocked"
    assert cache.main._listeners == []
    assert cache.main.main._listeners == []
    seen = len(recorder.events)
    for key in keys:
        cache.request(key)
    assert len(recorder.events) == seen
