"""Unit tests for the cache abstraction (stats, listeners, base class)."""

import pytest

from repro.core.base import (
    CacheListener,
    CacheStats,
    EvictionEvent,
    validate_capacity,
)
from repro.policies.fifo import FIFO
from repro.policies.lru import LRU


class TestCacheStats:
    def test_initial_state(self):
        stats = CacheStats()
        assert stats.requests == 0
        assert stats.miss_ratio == 0.0
        assert stats.hit_ratio == 0.0

    def test_record_accumulates(self):
        stats = CacheStats()
        for hit in [True, False, False, True, False]:
            if hit:
                stats.hits += 1
            else:
                stats.misses += 1
        assert stats.hits == 2
        assert stats.misses == 3
        assert stats.requests == 5
        assert stats.miss_ratio == pytest.approx(0.6)
        assert stats.hit_ratio == pytest.approx(0.4)

    def test_ratios_complement(self):
        stats = CacheStats(hits=7, misses=13)
        assert stats.miss_ratio + stats.hit_ratio == pytest.approx(1.0)

    def test_reset(self):
        stats = CacheStats(hits=3, misses=4)
        stats.reset()
        assert stats.requests == 0


class RecordingListener(CacheListener):
    def __init__(self):
        self.admits = []
        self.evicts = []
        self.hits = []

    def on_admit(self, key):
        self.admits.append(key)

    def on_evict(self, key):
        self.evicts.append(key)

    def on_hit(self, key):
        self.hits.append(key)


class TestListeners:
    def test_admit_and_evict_events(self):
        cache = FIFO(2)
        listener = RecordingListener()
        cache.add_listener(listener)
        cache.request("a")
        cache.request("b")
        cache.request("c")  # evicts a
        assert listener.admits == ["a", "b", "c"]
        assert listener.evicts == ["a"]

    def test_hit_events(self):
        cache = LRU(2)
        listener = RecordingListener()
        cache.add_listener(listener)
        cache.request("a")
        cache.request("a")
        cache.request("a")
        assert listener.hits == ["a", "a"]

    def test_remove_listener(self):
        cache = FIFO(2)
        listener = RecordingListener()
        cache.add_listener(listener)
        cache.request("a")
        cache.remove_listener(listener)
        cache.request("b")
        assert listener.admits == ["a"]

    def test_remove_unknown_listener_raises(self):
        cache = FIFO(2)
        with pytest.raises(ValueError):
            cache.remove_listener(RecordingListener())


class TestValidateCapacity:
    """One shared validator guards every capacity-carrying constructor."""

    def test_accepts_plain_ints(self):
        assert validate_capacity(1) == 1
        assert validate_capacity(10_000) == 10_000

    def test_accepts_whole_floats_as_ints(self):
        assert validate_capacity(8.0) == 8
        assert isinstance(validate_capacity(8.0), int)

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match=">= 1"):
            validate_capacity(bad)

    def test_rejects_fractional_instead_of_truncating(self):
        with pytest.raises(ValueError, match="whole number"):
            validate_capacity(2.7)

    @pytest.mark.parametrize("bad", [True, False])
    def test_rejects_booleans(self, bad):
        with pytest.raises(TypeError, match="integer"):
            validate_capacity(bad)

    @pytest.mark.parametrize("bad", ["10", None, [4]])
    def test_rejects_non_numeric(self, bad):
        with pytest.raises(TypeError, match="integer"):
            validate_capacity(bad)

    def test_message_names_the_parameter(self):
        with pytest.raises(ValueError, match="capacity_bytes"):
            validate_capacity(0, what="capacity_bytes")


class TestEvictionPolicyBase:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FIFO(0)
        with pytest.raises(ValueError):
            LRU(-5)

    def test_capacity_zero_rejected_via_registry_too(self):
        from repro.policies.registry import make

        for name in ("LRU", "FIFO", "QD-LP-FIFO"):
            with pytest.raises(ValueError, match="capacity"):
                make(name, 0)

    def test_fractional_and_boolean_capacity_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            LRU(2.7)
        with pytest.raises(TypeError, match="integer"):
            FIFO(True)

    def test_warm_resets_stats_but_keeps_content(self):
        cache = LRU(10)
        cache.warm(["a", "b", "c"])
        assert cache.stats.requests == 0
        assert "a" in cache and "b" in cache and "c" in cache
        assert cache.request("a") is True

    def test_repr_mentions_name_and_capacity(self):
        cache = LRU(5)
        text = repr(cache)
        assert "LRU" in text and "5" in text


class TestEvictionEvent:
    def test_residency(self):
        event = EvictionEvent(key="x", admit_time=10, evict_time=25, hits=3)
        assert event.residency == 15
