"""Unit tests for size-aware Quick Demotion."""

import pytest

from repro.policies.lru import LRU
from repro.sized.qd import SizedGhost, SizedQDCache, SizedQDLPFIFO
from repro.sized.simulator import simulate_sized
from repro.sized.workloads import attach_sizes, unique_bytes


class TestSizedGhost:
    def test_byte_bounded(self):
        ghost = SizedGhost(100)
        ghost.add("a", 60)
        ghost.add("b", 60)   # over budget: a falls off
        assert "a" not in ghost
        assert "b" in ghost
        assert ghost.used_bytes == 60

    def test_keeps_at_least_one_entry(self):
        ghost = SizedGhost(10)
        ghost.add("big", 50)   # oversized entries still remembered once
        assert "big" in ghost

    def test_remove(self):
        ghost = SizedGhost(100)
        ghost.add("a", 10)
        assert ghost.remove("a") is True
        assert ghost.remove("a") is False
        assert ghost.used_bytes == 0

    def test_re_add_refreshes(self):
        ghost = SizedGhost(100)
        ghost.add("a", 40)
        ghost.add("b", 40)
        ghost.add("a", 40)
        ghost.add("c", 40)   # b is now oldest -> dropped
        assert "a" in ghost and "c" in ghost and "b" not in ghost

    def test_zero_capacity(self):
        ghost = SizedGhost(0)
        ghost.add("a", 1)
        assert "a" not in ghost

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SizedGhost(-1)


class TestSizedQDCache:
    def make(self, capacity=1000, **kwargs):
        return SizedQDCache(capacity, LRU, **kwargs)

    def test_byte_partition(self):
        cache = self.make(1000)
        assert cache.probation_bytes == 100
        assert cache.main_bytes == 900

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(1)
        with pytest.raises(ValueError):
            self.make(1000, probation_fraction=0.0)

    def test_miss_enters_probation(self):
        cache = self.make(1000)
        cache.request("a", 50)
        assert cache.in_probation("a")

    def test_oversized_for_probation_goes_to_main(self):
        cache = self.make(1000)   # probation budget 100
        cache.request("big", 500)
        assert cache.in_main("big")

    def test_untouched_demotion_ghosts(self):
        cache = self.make(1000)   # probation 100
        cache.request("a", 60)
        cache.request("b", 60)    # a demoted: never hit -> ghost
        assert "a" not in cache
        assert "a" in cache.ghost

    def test_visited_demotion_graduates(self):
        cache = self.make(1000)
        cache.request("a", 60)
        cache.request("a", 60)    # mark visited
        cache.request("b", 60)    # a demoted -> main
        assert cache.in_main("a")

    def test_ghost_hit_straight_to_main(self):
        cache = self.make(1000)
        cache.request("a", 60)
        cache.request("b", 60)    # a -> ghost
        cache.request("a", 60)    # ghost hit: main admission
        assert cache.in_main("a")
        assert "a" not in cache.ghost

    def test_budget_never_exceeded(self, rng):
        cache = self.make(5000)
        for _ in range(4000):
            key = int(rng.integers(0, 400))
            size = int(rng.integers(1, 300))
            cache.request(key, size)
            assert cache.used <= 5000

    def test_stats_consistent(self, rng):
        cache = self.make(2000)
        hits = 0
        for _ in range(2000):
            hits += cache.request(int(rng.integers(0, 100)), 25)
        assert cache.stats.hits == hits


class TestSizedQDLPFIFO:
    def test_name_and_structure(self):
        cache = SizedQDLPFIFO(1000)
        assert cache.name == "Sized-QD-LP-FIFO"
        assert cache.main.name == "Sized-2-bit-CLOCK"

    def test_beats_sized_lru_on_ohw_bytes(self, rng):
        """The §5 future-work claim, demonstrated: size-aware QD+LP
        yields a lower byte miss ratio than sized LRU on a one-hit
        -wonder-heavy workload."""
        from repro.traces.synthetic import one_hit_wonder_trace
        keys = one_hit_wonder_trace(3000, 50000, 1.0, 0.3, rng)
        sized = attach_sizes(keys, "lognormal", seed=2)
        capacity = unique_bytes(sized) // 10
        qd = simulate_sized(SizedQDLPFIFO(capacity), sized)
        lru = simulate_sized(LRU(capacity), sized)
        assert qd.byte_miss_ratio < lru.byte_miss_ratio
        assert qd.miss_ratio < lru.miss_ratio


class TestSizedQDPromotions:
    def test_unit_sizes_match_the_unsized_wrapper(self):
        """At size 1 the byte budgets are slot budgets: the sized and
        unsized QD-LP-FIFO serve the same hits and count the same
        promotions -- graduations plus the main CLOCK's rotations."""
        import numpy as np

        from repro.policies.registry import make, make_sized
        from repro.traces.synthetic import zipf_trace

        keys = zipf_trace(500, 20_000, 0.9, np.random.default_rng(3)).tolist()
        unsized = make("QD-LP-FIFO", 50)
        sized = make_sized("Sized-QD-LP-FIFO", 50)
        assert [unsized.request(key) for key in keys] == \
            [sized.request(key, 1) for key in keys]
        assert sized.stats.hits == unsized.stats.hits
        assert sized.stats.promotions == unsized.stats.promotions > 0
        assert sized.promotion_count == unsized.promotion_count
        assert sized.promotion_count > sized.main.promotion_count

    def test_web_trace_counts_promotions(self):
        from repro.policies.registry import make_sized
        from tests.conftest import Recorder, zipf_pareto_trace

        keys, sizes = zipf_pareto_trace(7)
        cache = make_sized("Sized-QD-LP-FIFO", 20_000)
        recorder = Recorder()
        cache.add_listener(recorder)
        for key, size in zip(keys, sizes):
            cache.request(key, size)
        assert cache.stats.promotions > 0
        assert cache.promotion_count == \
            cache.stats.promotions + cache.main.promotion_count
        assert recorder.count("promote") == cache.stats.promotions


class TestSizedQDForwarder:
    """The forwarder rule QDCache follows, for the sized wrapper."""

    def test_unobserved_main_has_no_listener(self):
        cache = SizedQDLPFIFO(10)
        for key in range(40):
            cache.request(key, 1)
            cache.request(key, 1)
        assert cache.main._listeners == []

    def test_each_main_eviction_reaches_the_listener_once(self):
        from repro.obs.tracer import EVICT, CacheTracer

        cache = SizedQDLPFIFO(10)
        kept = CacheTracer()
        cache.add_listener(kept)
        assert len(cache.main._listeners) == 1
        # Each key hits once in probation, so it graduates and is later
        # evicted by the main CLOCK, through the forwarder.
        for key in range(40):
            cache.request(key, 1)
            cache.request(key, 1)
        assert kept.counts[EVICT] == 30
        assert len({event.key for event in kept.events(EVICT)}) == 30
        cache.remove_listener(kept)
        assert cache.main._listeners == []
