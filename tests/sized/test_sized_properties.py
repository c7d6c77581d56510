"""Property-based tests for the size-aware policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clock import KBitClock
from repro.policies.fifo import FIFO
from repro.policies.lru import LRU
from repro.sized.policies import GDSF
from repro.sized.qd import SizedQDCache, SizedQDLPFIFO
from repro.sized.simulator import simulate_sized

FACTORIES = {
    "Sized-FIFO": FIFO,
    "Sized-LRU": LRU,
    "Sized-CLOCK": lambda b: KBitClock(b, 2),
    "GDSF": GDSF,
    "Sized-QD-LRU": lambda b: SizedQDCache(b, LRU),
    "Sized-QD-LP-FIFO": SizedQDLPFIFO,
}

requests_strategy = st.lists(
    st.tuples(st.integers(0, 25), st.integers(1, 120)),
    min_size=1, max_size=250)


@pytest.mark.parametrize("name", sorted(FACTORIES))
@given(requests=requests_strategy, capacity=st.integers(50, 600))
@settings(max_examples=20, deadline=None)
def test_sized_invariants(name, requests, capacity):
    """Byte budget, hit semantics and stats hold under random traffic
    with changing object sizes."""
    cache = FACTORIES[name](capacity)
    current_size = {}
    miss_bytes = 0
    for key, size in requests:
        resident_before = key in cache
        hit = cache.request(key, size)
        assert hit == resident_before
        miss_bytes += 0 if hit else size
        current_size[key] = size
        assert cache.used <= capacity
        assert cache.used >= 0
        if hit and cache.admits(size):
            # A hit must leave the (resized) object resident, as long
            # as some segment of the cache can hold it at all.
            assert key in cache
    stats = cache.stats
    assert stats.hits + stats.misses == len(requests)
    replay = simulate_sized(FACTORIES[name](capacity),
                            ([key for key, _ in requests],
                             [size for _, size in requests]))
    assert (replay.misses, replay.miss_bytes) == (stats.misses, miss_bytes)
    assert replay.total_bytes == sum(size for _, size in requests)


@pytest.mark.parametrize("name", sorted(FACTORIES))
@given(requests=requests_strategy, capacity=st.integers(50, 600))
@settings(max_examples=10, deadline=None)
def test_sized_determinism(name, requests, capacity):
    a = FACTORIES[name](capacity)
    b = FACTORIES[name](capacity)
    outcomes_a = [a.request(k, s) for k, s in requests]
    outcomes_b = [b.request(k, s) for k, s in requests]
    assert outcomes_a == outcomes_b


@given(requests=requests_strategy, capacity=st.integers(50, 600))
@settings(max_examples=20, deadline=None)
def test_sized_qd_used_bytes_matches_parts(requests, capacity):
    cache = SizedQDLPFIFO(capacity)
    for key, size in requests:
        cache.request(key, size)
        assert cache.used == (cache._probation_used
                              + cache.main.used)
        assert cache._probation_used <= cache.probation_bytes
        assert cache.main.used <= cache.main_bytes
