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

from collections import OrderedDict

from repro.core.base import EvictionPolicy, Key


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
        #: key -> clock of its last move, most recent (MRU) first
        self._queue: "OrderedDict[Key, int]" = OrderedDict()
        self._clock = 0

    def request(self, key: Key) -> bool:
        self._clock += 1
        queue = self._queue
        if key in queue:
            if self._clock - queue[key] >= self.period:
                queue.move_to_end(key, last=False)
                queue[key] = self._clock
                self.stats.promotions += 1
                if self._on_promote:
                    self._notify_promote(key)
            self.stats.hits += 1
            if self._on_hit:
                self._notify_hit(key)
            return True
        self.stats.misses += 1
        if len(queue) >= self.capacity:
            victim, _ = queue.popitem()
            if self._on_evict:
                self._notify_evict(victim)
        queue[key] = self._clock
        queue.move_to_end(key, last=False)
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
        #: key -> clock of its last move, most recent (MRU) first
        self._queue: "OrderedDict[Key, int]" = OrderedDict()
        self._clock = 0

    def _is_old(self, moved_at: int) -> bool:
        # An object is "old" when more than (1 - old_fraction) of a
        # cache-capacity worth of requests passed since it was last
        # moved to the head.
        age = self._clock - moved_at
        return age >= (1.0 - self.old_fraction) * self.capacity

    def request(self, key: Key) -> bool:
        self._clock += 1
        queue = self._queue
        if key in queue:
            if self._is_old(queue[key]):
                queue.move_to_end(key, last=False)
                queue[key] = self._clock
                self.stats.promotions += 1
                if self._on_promote:
                    self._notify_promote(key)
            self.stats.hits += 1
            if self._on_hit:
                self._notify_hit(key)
            return True
        self.stats.misses += 1
        if len(queue) >= self.capacity:
            victim, _ = queue.popitem()
            if self._on_evict:
                self._notify_evict(victim)
        queue[key] = self._clock
        queue.move_to_end(key, last=False)
        if self._on_admit:
            self._notify_admit(key)
        return False

    def __contains__(self, key: Key) -> bool:
        return key in self._queue

    def __len__(self) -> int:
        return len(self._queue)


__all__ = ["PeriodicPromotionLRU", "PromoteOldOnlyLRU"]
