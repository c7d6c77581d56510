"""Unit tests for SIEVE."""

from repro.core.sieve import Sieve
from repro.policies.fifo import FIFO
from tests.conftest import drive


class TestSieve:
    def test_basic_insert_and_hit(self):
        cache = Sieve(3)
        assert cache.request("a") is False
        assert cache.request("a") is True
        assert "a" in cache

    def test_unvisited_tail_evicted_first(self):
        cache = Sieve(2)
        cache.request("a")
        cache.request("b")
        cache.request("c")   # a unvisited at tail -> evicted
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_visited_object_survives_hand_pass(self):
        cache = Sieve(2)
        cache.request("a")
        cache.request("a")   # visited
        cache.request("b")
        cache.request("c")   # hand clears a's bit, evicts b
        assert "a" in cache
        assert "b" not in cache

    def test_survivor_keeps_queue_position(self):
        """Unlike CLOCK, SIEVE does not reinsert survivors at the head:
        the hand keeps moving toward the head, so *newer* unvisited
        objects are evicted before an old spared one -- SIEVE's quick
        demotion."""
        cache = Sieve(3)
        cache.request("a")
        cache.request("a")   # a visited
        cache.request("b")
        cache.request("c")
        cache.request("d")   # scan from tail: a spared, b evicted
        assert "a" in cache and "b" not in cache
        cache.request("e")   # hand is at c now: c (newer than a) evicted
        assert "c" not in cache
        assert [*cache._behind, *cache._ahead] == ["a", "d", "e"]

    def test_hand_wraps_to_tail(self):
        cache = Sieve(2)
        cache.request("a")
        cache.request("b")
        cache.request("a")
        cache.request("b")   # both visited
        cache.request("c")   # full scan clears bits, wraps, evicts
        assert len(cache) == 2
        assert "c" in cache

    def test_capacity_never_exceeded(self, zipf_keys):
        cache = Sieve(25)
        for key in zipf_keys:
            cache.request(key)
            assert len(cache) <= 25

    def test_beats_fifo_on_skewed_workload(self, zipf_keys):
        sieve = Sieve(50)
        fifo = FIFO(50)
        drive(sieve, zipf_keys)
        drive(fifo, zipf_keys)
        assert sieve.stats.miss_ratio < fifo.stats.miss_ratio

    def test_long_run_hand_integrity(self, rng):
        """The two deques split at the hand hold each resident once."""
        from repro.traces.synthetic import zipf_trace
        keys = zipf_trace(200, 20000, 0.8, rng).tolist()
        cache = Sieve(20)
        for key in keys:
            cache.request(key)
            assert sorted([*cache._behind, *cache._ahead]) == \
                sorted(cache._visited)

    def test_stats_consistency(self, zipf_keys):
        cache = Sieve(50)
        hits = sum(drive(cache, zipf_keys))
        assert cache.stats.hits == hits
        assert cache.stats.requests == len(zipf_keys)
