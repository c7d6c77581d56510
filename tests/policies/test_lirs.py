"""Unit tests for LIRS, with the invariants the paper found broken in
public implementations."""

import pytest

from repro.policies.lirs import LIRS, _HIR_NONRES, _LIR
from tests.conftest import drive


class TestLIRSBasics:
    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError):
            LIRS(1)

    def test_partition(self):
        cache = LIRS(100)
        assert cache.hir_capacity == 1
        assert cache.lir_capacity == 99

    def test_cold_start_fills_lir(self):
        cache = LIRS(10, hir_fraction=0.2)
        for key in "abcdefgh":
            cache.request(key)
        assert cache.lir_count == cache.lir_capacity

    def test_basic_hit(self):
        cache = LIRS(4)
        cache.request("a")
        assert cache.request("a") is True

    def test_resident_hir_in_stack_promotes_to_lir(self):
        cache = LIRS(4, hir_fraction=0.5)  # 2 LIR + 2 HIR
        cache.request("a")
        cache.request("b")   # LIR set full: a, b LIR
        cache.request("c")   # c resident HIR, in stack
        assert not cache.is_lir("c")
        cache.request("c")   # re-reference while in stack: LIR
        assert cache.is_lir("c")
        assert cache.lir_count == cache.lir_capacity  # someone demoted

    def test_capacity_never_exceeded(self, zipf_keys):
        cache = LIRS(30)
        for key in zipf_keys:
            cache.request(key)
            assert len(cache) <= 30


class TestLIRSInvariants:
    def _check(self, cache):
        # stack bottom is always LIR
        if cache._stack:
            assert cache._state[next(iter(cache._stack))] == _LIR
        # LIR count never exceeds the LIR capacity after warmup
        assert cache.lir_count <= cache.lir_capacity
        # every non-resident entry is tracked and in the stack
        for key, state in cache._state.items():
            if state == _HIR_NONRES:
                assert key in cache._stack
                assert key in cache._nonres
        # resident accounting agrees
        assert len(cache) == cache.lir_count + len(cache._queue)

    def test_invariants_zipf(self, zipf_keys):
        cache = LIRS(20)
        for i, key in enumerate(zipf_keys):
            cache.request(key)
            if i % 100 == 0:
                self._check(cache)

    def test_invariants_adversarial_random(self, rng):
        keys = rng.integers(0, 40, 20000).tolist()
        cache = LIRS(10, hir_fraction=0.3)
        for i, key in enumerate(keys):
            cache.request(key)
            if i % 50 == 0:
                self._check(cache)

    def test_nonresident_metadata_bounded(self, rng):
        keys = rng.integers(0, 5000, 30000).tolist()
        cache = LIRS(20, nonresident_factor=2.0)
        for key in keys:
            cache.request(key)
        assert len(cache._nonres) <= 40
        assert cache.stack_size <= 20 + 40 + 20  # LIR + nonres + res-HIR

    def test_promoting_oldest_nonresident_key(self):
        """Regression: promoting a key that is simultaneously the
        oldest non-resident entry must not corrupt the stack (the
        non-resident cap used to reclaim it mid-request)."""
        import numpy as np
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 500, 50000).tolist()
        cache = LIRS(20)
        for key in keys:
            cache.request(key)  # raised KeyError before the fix
        assert len(cache) <= 20


class TestLIRSBehaviour:
    def test_loop_friendliness(self):
        """LIRS's signature: a loop slightly larger than the cache
        still gets hits (LRU/FIFO get zero)."""
        from repro.policies.lru import LRU
        n = 30
        keys = list(range(n)) * 20
        lirs, lru = LIRS(25), LRU(25)
        drive(lirs, keys)
        drive(lru, keys)
        assert lru.stats.hit_ratio == 0.0
        assert lirs.stats.hit_ratio > 0.5

    def test_scan_resistance(self, rng):
        from repro.traces.synthetic import blend, scan_trace, zipf_trace
        from repro.policies.lru import LRU
        core = zipf_trace(400, 15000, 1.1, rng)
        scan = scan_trace(5000, base=1000)
        keys = blend([core, scan], [0.75, 0.25], rng).tolist()
        lirs, lru = LIRS(100), LRU(100)
        drive(lirs, keys)
        drive(lru, keys)
        assert lirs.stats.miss_ratio < lru.stats.miss_ratio
