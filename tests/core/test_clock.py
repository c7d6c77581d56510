"""Unit tests for the LP-FIFO family (FIFO-Reinsertion, k-bit CLOCK)."""

import pytest

from repro.core.clock import FIFOReinsertion, KBitClock, two_bit_clock


class TestFIFOReinsertion:
    def test_basic_fifo_eviction_of_untouched_objects(self):
        cache = FIFOReinsertion(2)
        cache.request("a")
        cache.request("b")
        cache.request("c")  # a untouched -> evicted
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_hit_sets_visited_and_earns_reinsertion(self):
        cache = FIFOReinsertion(2)
        cache.request("a")
        cache.request("b")
        cache.request("a")        # mark a visited (no movement)
        cache.request("c")        # a is reinserted; b evicted instead
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_hit_does_not_move_object(self):
        """Lazy promotion: a hit only flips a bit; the queue order is
        unchanged until eviction time."""
        cache = FIFOReinsertion(3)
        for key in "abc":
            cache.request(key)
        cache.request("a")
        assert list(cache._queue) == ["a", "b", "c"]   # oldest first

    def test_reinsertion_clears_the_bit(self):
        cache = FIFOReinsertion(2)
        cache.request("a")
        cache.request("b")
        cache.request("a")   # visited
        cache.request("c")   # reinserts a (bit cleared), evicts b
        cache.request("d")   # now c is the tail... order: [d?]...
        # After the reinsertion the queue held [c, a]; d's miss evicts
        # the unvisited tail a (its bit was consumed by reinsertion).
        assert "a" not in cache
        assert "c" in cache and "d" in cache

    def test_all_visited_terminates(self):
        cache = FIFOReinsertion(3)
        for key in "abc":
            cache.request(key)
        for key in "abc":
            cache.request(key)   # everything visited
        cache.request("d")       # must terminate and evict exactly one
        assert len(cache) == 3
        assert "d" in cache

    def test_capacity_never_exceeded(self, zipf_keys):
        cache = FIFOReinsertion(50)
        for key in zipf_keys:
            cache.request(key)
            assert len(cache) <= 50

    def test_stats_consistency(self, zipf_keys):
        cache = FIFOReinsertion(50)
        hits = sum(cache.request(key) for key in zipf_keys)
        assert cache.stats.hits == hits
        assert cache.stats.requests == len(zipf_keys)


class TestKBitClock:
    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            KBitClock(10, bits=0)

    def test_max_freq_saturates(self):
        cache = KBitClock(4, bits=2)
        cache.request("a")
        for _ in range(10):
            cache.request("a")
        assert cache._queue["a"] == 3

    def test_one_bit_equals_fifo_reinsertion(self, zipf_keys):
        """bits=1 must reproduce FIFO-Reinsertion decision-for-decision."""
        one_bit = KBitClock(40, bits=1)
        reinsertion = FIFOReinsertion(40)
        for key in zipf_keys:
            assert one_bit.request(key) == reinsertion.request(key)
        assert one_bit.stats.misses == reinsertion.stats.misses

    def test_two_bit_decrements_on_scan(self):
        cache = KBitClock(2, bits=2)
        cache.request("a")
        cache.request("a")  # freq 1
        cache.request("b")
        cache.request("c")  # a survives (freq 1 -> 0), b evicted
        assert "a" in cache
        assert "b" not in cache
        assert cache._queue["a"] == 0

    def test_frequent_object_survives_multiple_scans(self):
        cache = KBitClock(2, bits=2)
        cache.request("a")
        for _ in range(3):
            cache.request("a")  # freq -> 3
        for key in ["b", "c", "d", "e"]:
            cache.request(key)
        assert "a" in cache  # 3 lives were enough for 4 insertions

    def test_factory_helper(self):
        cache = two_bit_clock(16)
        assert cache.bits == 2
        assert cache.max_freq == 3
        assert cache.name == "2-bit-CLOCK"

    def test_capacity_one(self):
        cache = KBitClock(1, bits=2)
        assert cache.request("a") is False
        assert cache.request("a") is True
        assert cache.request("b") is False
        assert len(cache) == 1

    def test_two_bit_better_than_one_bit_on_high_reuse(self, rng):
        """The paper's social-network observation: with most objects
        accessed repeatedly, the extra bit lowers the miss ratio."""
        from repro.traces.synthetic import zipf_trace
        keys = zipf_trace(2000, 60000, 1.3, rng).tolist()
        one = KBitClock(100, bits=1)
        two = KBitClock(100, bits=2)
        for key in keys:
            one.request(key)
            two.request(key)
        assert two.stats.miss_ratio <= one.stats.miss_ratio
