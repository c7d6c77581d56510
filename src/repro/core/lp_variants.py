"""Alternative Lazy Promotion techniques (paper §5).

The paper's strict definition of Lazy Promotion is "promotion at
eviction time" (reinsertion), but §5 lists several production
techniques that likewise cut promotion traffic while retaining popular
objects:

* **periodic promotion** (FrozenHot, [62]) -- promote an object on a
  hit only if it has not been promoted recently;
* **promoting old objects only** (CacheLib, [15]) -- promote on a hit
  only when the object has drifted into the old (eviction-side)
  portion of the queue;
* batched promotion and promotion with try-lock are concurrency
  techniques without a miss-ratio effect in a single-threaded
  simulator, so they are not modelled here.

Both classes below are LRU variants whose hit path usually does *no*
list manipulation -- the property that makes them fast and scalable --
and are used by the A4 ablation benchmark to compare LP techniques.
"""

from __future__ import annotations

from repro.core.base import EvictionPolicy, Key
from repro.utils.linkedlist import KeyedList


class PeriodicPromotionLRU(EvictionPolicy):
    """LRU that promotes each object at most once per ``period``.

    A hit within ``period`` requests of the object's last promotion
    only records the access; later hits promote as usual.  ``period``
    defaults to the cache capacity -- roughly "promote once per cache
    lifetime", FrozenHot's regime.
    """

    def __init__(self, capacity: int, period: int = 0) -> None:
        super().__init__(capacity)
        self.period = period if period > 0 else capacity
        self.name = "PeriodicPromotion-LRU"
        self._queue: KeyedList[Key] = KeyedList()  # head = MRU
        self._clock = 0

    def request(self, key: Key) -> bool:
        self._clock += 1
        node = self._queue.get(key)
        if node is not None:
            last_promoted = node.extra or 0
            if self._clock - last_promoted >= self.period:
                self._queue.move_to_head(key)
                node.extra = self._clock
                self.stats.promotions += 1
                if self._on_promote:
                    self._notify_promote(key)
            self.stats.hits += 1
            if self._on_hit:
                self._notify_hit(key)
            return True
        self.stats.misses += 1
        if len(self._queue) >= self.capacity:
            victim = self._queue.pop_tail()
            if self._on_evict:
                self._notify_evict(victim.key)
        node = self._queue.push_head(key)
        node.extra = self._clock
        if self._on_admit:
            self._notify_admit(key)
        return False

    def __contains__(self, key: Key) -> bool:
        return key in self._queue

    def __len__(self) -> int:
        return len(self._queue)


class PromoteOldOnlyLRU(EvictionPolicy):
    """LRU that promotes only objects near the eviction end.

    A hit promotes the object only when it sits in the oldest
    ``old_fraction`` of the queue (approximated by insertion/promotion
    age, which avoids walking the list).  Hits to young objects are
    no-ops -- CacheLib's lock-avoidance heuristic.
    """

    def __init__(self, capacity: int, old_fraction: float = 0.5) -> None:
        super().__init__(capacity)
        if not 0.0 < old_fraction <= 1.0:
            raise ValueError(
                f"old_fraction must be in (0, 1], got {old_fraction}")
        self.old_fraction = old_fraction
        self.name = "PromoteOldOnly-LRU"
        self._queue: KeyedList[Key] = KeyedList()
        self._clock = 0

    def _is_old(self, node) -> bool:
        # An object is "old" when more than (1 - old_fraction) of a
        # cache-capacity worth of requests passed since it was last
        # moved to the head.
        age = self._clock - (node.extra or 0)
        return age >= (1.0 - self.old_fraction) * self.capacity

    def request(self, key: Key) -> bool:
        self._clock += 1
        node = self._queue.get(key)
        if node is not None:
            if self._is_old(node):
                self._queue.move_to_head(key)
                node.extra = self._clock
                self.stats.promotions += 1
                if self._on_promote:
                    self._notify_promote(key)
            self.stats.hits += 1
            if self._on_hit:
                self._notify_hit(key)
            return True
        self.stats.misses += 1
        if len(self._queue) >= self.capacity:
            victim = self._queue.pop_tail()
            if self._on_evict:
                self._notify_evict(victim.key)
        node = self._queue.push_head(key)
        node.extra = self._clock
        if self._on_admit:
            self._notify_admit(key)
        return False

    def __contains__(self, key: Key) -> bool:
        return key in self._queue

    def __len__(self) -> int:
        return len(self._queue)


__all__ = ["PeriodicPromotionLRU", "PromoteOldOnlyLRU"]
