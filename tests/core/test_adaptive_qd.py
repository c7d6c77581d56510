"""Unit tests for the adaptive QD wrapper and CLOCK resizing."""

import pytest

from repro.core.adaptive_qd import AdaptiveQDLPFIFO
from repro.core.clock import KBitClock
from tests.conftest import Recorder, drive


class TestClockResize:
    def test_grow_keeps_contents(self):
        clock = KBitClock(4)
        for key in "abcd":
            clock.request(key)
        clock.resize(8)
        assert clock.capacity == 8
        assert len(clock) == 4

    def test_shrink_evicts_down(self):
        clock = KBitClock(8)
        for key in "abcdefgh":
            clock.request(key)
        clock.resize(3)
        assert len(clock) == 3
        assert clock.capacity == 3

    def test_shrink_prefers_unvisited_victims(self):
        clock = KBitClock(4, bits=1)
        for key in "abcd":
            clock.request(key)
        clock.request("a")  # a visited
        clock.resize(1)
        assert "a" in clock

    def test_invalid_resize(self):
        with pytest.raises(ValueError):
            KBitClock(4).resize(0)


class TestAdaptiveQDLPFIFO:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveQDLPFIFO(100, min_fraction=0.2, initial_fraction=0.1)
        with pytest.raises(ValueError):
            AdaptiveQDLPFIFO(100, step=1.0)

    def test_name_and_initial_fraction(self):
        cache = AdaptiveQDLPFIFO(100)
        assert cache.name == "Adaptive-QD-LP-FIFO"
        assert cache.probation_fraction == pytest.approx(0.1)

    def test_fraction_stays_in_bounds(self, zipf_keys):
        cache = AdaptiveQDLPFIFO(60, window=100)
        for key in zipf_keys:
            cache.request(key)
            assert (cache.min_fraction <= cache.probation_fraction
                    <= cache.max_fraction)

    def test_budget_partition_always_consistent(self, zipf_keys):
        cache = AdaptiveQDLPFIFO(60, window=100)
        for key in zipf_keys:
            cache.request(key)
            assert (cache.probation_capacity + cache.main_capacity
                    == cache.capacity)
            assert len(cache) <= cache.capacity
            assert cache.main.capacity == cache.main_capacity

    def test_adaptation_actually_moves(self, zipf_keys):
        cache = AdaptiveQDLPFIFO(60, window=100)
        seen = set()
        for key in zipf_keys:
            cache.request(key)
            seen.add(round(cache.probation_fraction, 4))
        assert len(seen) > 1, "the controller never adapted"

    def test_stats_consistent(self, zipf_keys):
        cache = AdaptiveQDLPFIFO(60, window=100)
        hits = sum(drive(cache, zipf_keys))
        assert cache.stats.hits == hits
        assert cache.stats.requests == len(zipf_keys)

    def test_shrinking_probation_keeps_a_full_cache_full(self):
        """Graduating probation keys land in the main budget freed for
        them: nothing is evicted, and the cache stays at capacity."""
        cache = AdaptiveQDLPFIFO(100, initial_fraction=0.3, window=10**9)
        for key in range(300):
            cache.request(key)
            cache.request(key)   # visited: every probation key graduates
        assert len(cache) == 100
        recorder = Recorder()
        cache.add_listener(recorder)
        cache.fraction = 0.1
        cache._apply_fraction()
        assert recorder.count("evict") == 0
        assert recorder.count("promote") == 20
        assert len(cache) == 100
        assert (len(cache._probation), len(cache.main)) == (10, 90)

    def test_competitive_with_fixed(self, rng):
        """A8's expectation: adaptive lands within a few points of the
        fixed design on a standard workload."""
        from repro.core.qdlpfifo import QDLPFIFO
        from repro.traces.synthetic import one_hit_wonder_trace
        keys = one_hit_wonder_trace(3000, 50000, 1.0, 0.3, rng).tolist()
        fixed = QDLPFIFO(500)
        adaptive = AdaptiveQDLPFIFO(500)
        drive(fixed, keys)
        drive(adaptive, keys)
        assert abs(fixed.stats.miss_ratio
                   - adaptive.stats.miss_ratio) < 0.05
