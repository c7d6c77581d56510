"""W-TinyLFU (Einziger, Friedman & Manes, ToS 2017).

The paper's §5 observes that admission algorithms -- TinyLFU foremost
-- "can be viewed as a form of QD", sometimes an overly aggressive one
(rejecting objects outright).  W-TinyLFU is the production variant
(Caffeine, Ristretto): a small **window LRU** (1 % of the cache)
absorbs new objects; on eviction from the window, the candidate must
beat the main cache's next victim in a frequency duel judged by a
Count-Min **sketch** (with a doorkeeper Bloom filter shielding it from
one-hit wonders); the **main** cache is a segmented LRU (20 %
probationary / 80 % protected).

Included so the QD-vs-admission comparison the paper gestures at can
actually be run (see ``benchmarks/bench_extensions.py``).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.base import EvictionPolicy, Key
from repro.utils.sketch import CountMinSketch, Doorkeeper


class _SegmentedLRU:
    """Internal SLRU with explicit victim/remove control."""

    def __init__(self, capacity: int, protected_fraction: float) -> None:
        self.capacity = capacity
        self.protected_capacity = max(
            0, min(capacity - 1, round(capacity * protected_fraction)))
        self._probationary: "OrderedDict[Key, None]" = OrderedDict()
        self._protected: "OrderedDict[Key, None]" = OrderedDict()

    def __contains__(self, key: Key) -> bool:
        return key in self._probationary or key in self._protected

    def __len__(self) -> int:
        return len(self._probationary) + len(self._protected)

    def insert(self, key: Key) -> None:
        self._probationary[key] = None

    def hit(self, key: Key) -> None:
        if key in self._protected:
            self._protected.move_to_end(key)
            return
        del self._probationary[key]
        if self.protected_capacity == 0:
            self._probationary[key] = None
            return
        if len(self._protected) >= self.protected_capacity:
            demoted, _ = self._protected.popitem(last=False)
            self._probationary[demoted] = None
        self._protected[key] = None

    def victim(self) -> Key:
        """The key that would be evicted next."""
        if self._probationary:
            return next(iter(self._probationary))
        return next(iter(self._protected))

    def pop_victim(self) -> Key:
        victim = self.victim()
        if victim in self._probationary:
            del self._probationary[victim]
        else:
            del self._protected[victim]
        return victim


class WTinyLFU(EvictionPolicy):
    """The W-TinyLFU admission-based eviction algorithm."""

    name = "W-TinyLFU"

    def __init__(
        self,
        capacity: int,
        window_fraction: float = 0.01,
        protected_fraction: float = 0.8,
    ) -> None:
        super().__init__(capacity)
        if capacity < 2:
            raise ValueError("WTinyLFU needs capacity >= 2")
        if not 0.0 < window_fraction < 1.0:
            raise ValueError(
                f"window_fraction must be in (0, 1), got {window_fraction}")
        self.window_capacity = max(1, round(capacity * window_fraction))
        self.main_capacity = capacity - self.window_capacity
        if self.main_capacity < 1:
            self.main_capacity = 1
            self.window_capacity = capacity - 1
        self._window: "OrderedDict[Key, None]" = OrderedDict()
        self._main = _SegmentedLRU(self.main_capacity, protected_fraction)
        self.sketch = CountMinSketch(width=max(64, capacity))
        self.doorkeeper = Doorkeeper(max(64, capacity))

    # ------------------------------------------------------------------
    def _count(self, key: Key) -> None:
        """TinyLFU frequency bookkeeping with the doorkeeper in front."""
        if self.doorkeeper.put(key):
            self.sketch.increment(key)
        if self.sketch.ages:  # sketch aged: start a fresh doorkeeper too
            self.doorkeeper.clear()
            self.sketch.ages = 0

    def _frequency(self, key: Key) -> int:
        boost = 1 if key in self.doorkeeper else 0
        return self.sketch.estimate(key) + boost

    def request(self, key: Key) -> bool:
        self._count(key)
        if key in self._window:
            self._window.move_to_end(key)
            self.stats.promotions += 1
            self.stats.hits += 1
            if self._listeners:
                if self._on_promote:
                    self._notify_promote(key)
                if self._on_hit:
                    self._notify_hit(key)
            return True
        if key in self._main:
            self._main.hit(key)
            self.stats.promotions += 1
            self.stats.hits += 1
            if self._listeners:
                if self._on_promote:
                    self._notify_promote(key)
                if self._on_hit:
                    self._notify_hit(key)
            return True

        self.stats.misses += 1
        self._window[key] = None
        if self._on_admit:
            self._notify_admit(key)
        if len(self._window) > self.window_capacity:
            self._evict_from_window()
        return False

    def _evict_from_window(self) -> None:
        candidate, _ = self._window.popitem(last=False)
        if len(self._main) < self.main_capacity:
            self._main.insert(candidate)
            self.stats.promotions += 1
            if self._on_promote:
                self._notify_promote(candidate)
            return
        victim = self._main.victim()
        # The TinyLFU duel: admit only if the candidate's estimated
        # frequency beats the main cache's next victim.
        if self._frequency(candidate) > self._frequency(victim):
            self._main.pop_victim()
            if self._on_evict:
                self._notify_evict(victim)
            self._main.insert(candidate)
            self.stats.promotions += 1
            if self._on_promote:
                self._notify_promote(candidate)
        elif self._on_evict:
            self._notify_evict(candidate)

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._window or key in self._main

    def __len__(self) -> int:
        return len(self._window) + len(self._main)

    def in_window(self, key: Key) -> bool:
        """Whether *key* currently sits in the window LRU."""
        return key in self._window

    def in_main(self, key: Key) -> bool:
        """Whether *key* currently sits in the main SLRU."""
        return key in self._main


__all__ = ["WTinyLFU"]
