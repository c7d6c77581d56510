"""Least Frequently Used eviction with O(1) operations.

LFU keeps a per-object access count and evicts a minimum-count object.
Implemented with the classic frequency-bucket structure: a dict from
frequency to an ordered set of keys plus a running minimum frequency,
giving O(1) hits and evictions.

Ties inside the minimum-frequency bucket are broken by recency.  The
default evicts the *least* recently used of the minimum-frequency
objects (classic LFU); ``tie="mru"`` evicts the *most* recently used,
which is the churn-resistant variant (CR-LFU) CACHEUS builds on --
under churn, evicting the newest of the cold objects protects the old
ones that have at least survived a while.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from repro.core.base import EvictionPolicy, Key


class LFU(EvictionPolicy):
    """In-cache LFU (frequency state does not survive eviction)."""

    name = "LFU"

    def __init__(self, capacity: int, tie: str = "lru") -> None:
        super().__init__(capacity)
        if tie not in ("lru", "mru"):
            raise ValueError(f"tie must be 'lru' or 'mru', got {tie!r}")
        self._tie = tie
        self._freq_of: Dict[Key, int] = {}
        self._buckets: Dict[int, "OrderedDict[Key, None]"] = {}
        self._min_freq = 0
        if tie == "mru":
            self.name = "CR-LFU"

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        if key in self._freq_of:
            self.bump(key)
            self.stats.promotions += 1
            self.stats.hits += 1
            if self._listeners:
                if self._on_promote:
                    self._notify_promote(key)
                if self._on_hit:
                    self._notify_hit(key)
            return True
        self.stats.misses += 1
        if len(self._freq_of) >= self.capacity:
            self._evict_one()
        self._freq_of[key] = 1
        bucket = self._buckets.get(1)
        if bucket is None:
            bucket = self._buckets[1] = OrderedDict()
        bucket[key] = None
        self._min_freq = 1
        if self._on_admit:
            self._notify_admit(key)
        return False

    # ------------------------------------------------------------------
    # Structure-level operations (no stats, no events): these let
    # ensemble policies (LeCaR, CACHEUS) drive an LFU ordering over a
    # shared cache without the LFU acting as a cache of its own.
    # ------------------------------------------------------------------
    def insert(self, key: Key, freq: int = 1) -> None:
        """Insert *key* with a given frequency, without eviction.

        Ensemble owners must make room first; inserting past capacity
        raises ``OverflowError`` to catch accounting bugs early.
        """
        if key in self._freq_of:
            raise KeyError(f"duplicate key {key!r}")
        if len(self._freq_of) >= self.capacity:
            raise OverflowError("LFU.insert called on a full structure")
        if freq < 1:
            raise ValueError(f"freq must be >= 1, got {freq}")
        self._freq_of[key] = freq
        bucket = self._buckets.get(freq)
        if bucket is None:
            bucket = self._buckets[freq] = OrderedDict()
        bucket[key] = None
        if len(self._freq_of) == 1 or freq < self._min_freq:
            self._min_freq = freq

    def bump(self, key: Key) -> None:
        """Increment *key*'s frequency; ``KeyError`` if absent."""
        freq_of = self._freq_of
        buckets = self._buckets
        freq = freq_of[key]
        bucket = buckets[freq]
        del bucket[key]
        if not bucket:
            del buckets[freq]
            if self._min_freq == freq:
                self._min_freq = freq + 1
        freq += 1
        freq_of[key] = freq
        bucket = buckets.get(freq)
        if bucket is None:
            bucket = buckets[freq] = OrderedDict()
        bucket[key] = None

    def pop_victim(self) -> Key:
        """Remove and return the eviction victim (no event fired)."""
        if not self._freq_of:
            raise KeyError("empty cache has no victim")
        bucket = self._buckets[self._min_freq]
        last = self._tie == "mru"
        victim, _ = bucket.popitem(last=last)
        if not bucket:
            del self._buckets[self._min_freq]
        del self._freq_of[victim]
        if self._freq_of and self._min_freq not in self._buckets:
            self._min_freq = min(self._buckets)
        return victim

    # ------------------------------------------------------------------
    def _evict_one(self) -> None:
        bucket = self._buckets[self._min_freq]
        last = self._tie == "mru"
        victim, _ = bucket.popitem(last=last)
        if not bucket:
            del self._buckets[self._min_freq]
        del self._freq_of[victim]
        if self._on_evict:
            self._notify_evict(victim)

    def victim(self) -> Key:
        """The key that would be evicted next; ``KeyError`` if empty."""
        if not self._freq_of:
            raise KeyError("empty cache has no victim")
        bucket = self._buckets[self._min_freq]
        if self._tie == "mru":
            return next(reversed(bucket))
        return next(iter(bucket))

    def frequency(self, key: Key) -> int:
        """Current in-cache access count of *key* (0 when absent)."""
        return self._freq_of.get(key, 0)

    def remove(self, key: Key) -> bool:
        """Force-remove *key*; returns whether it was present."""
        return self.pop(key) > 0

    def pop(self, key: Key) -> int:
        """Force-remove *key* and return its frequency (0 when absent).

        Used by ensemble policies, which learn an evicted key's
        frequency as they remove it.  Does not fire an evict event:
        ensemble owners account for removals themselves.
        """
        freq = self._freq_of.pop(key, 0)
        if not freq:
            return 0
        bucket = self._buckets[freq]
        del bucket[key]
        if not bucket:
            del self._buckets[freq]
            if self._min_freq == freq and self._freq_of:
                self._min_freq = min(self._buckets)
        return freq

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._freq_of

    def __len__(self) -> int:
        return len(self._freq_of)


__all__ = ["LFU"]
