"""Least Recently Used eviction.

LRU is the reference point the paper argues against: every hit eagerly
promotes the object to the queue head (six pointer updates under a lock
in a real doubly-linked-list implementation), and demotion happens only
passively as other objects are promoted past it -- which is exactly why
unpopular new objects linger so long (§2).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.base import EvictionPolicy, Key, check_size


class LRU(EvictionPolicy):
    """Classic LRU over an ordered map.

    The ``OrderedDict`` back end keeps the implementation honest: a hit
    costs a ``move_to_end`` (the eager promotion) and eviction pops the
    least-recent end.  It maps each key to its weight: 1 unless the
    request gives a *size* (``Sized-LRU``), with ``used`` the total
    against ``capacity``.  An object heavier than the cache is a miss
    that caches nothing.
    """

    name = "LRU"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._queue: "OrderedDict[Key, int]" = OrderedDict()
        self.used = 0

    def request(self, key: Key, size: int = 1) -> bool:
        queue = self._queue
        if key in queue:
            if queue[key] == size:
                queue.move_to_end(key)
            else:
                self._resize(key, queue[key], size)
            self.stats.promotions += 1
            self.stats.hits += 1
            if self._listeners:
                if self._on_promote:
                    self._notify_promote(key)
                if self._on_hit:
                    self._notify_hit(key)
            return True
        if not 0 < size <= self.capacity:
            return self._bypass(size)
        self.stats.misses += 1
        used = self.used + size
        while used > self.capacity:
            victim, victim_weight = queue.popitem(last=False)
            used -= victim_weight
            if self._on_evict:
                self._notify_evict(victim, victim_weight)
        queue[key] = size
        self.used = used
        if self._on_admit:
            self._notify_admit(key, size)
        return False

    def _resize(self, key: Key, weight: int, size: int) -> None:
        """Promote *key* at its new weight, then evict from the
        least-recent end until it fits -- *key* itself last."""
        check_size(size)
        queue = self._queue
        queue.move_to_end(key)
        queue[key] = size
        used = self.used + size - weight
        while used > self.capacity:
            victim, victim_weight = queue.popitem(last=False)
            used -= victim_weight
            if self._on_evict:
                self._notify_evict(victim, victim_weight)
        self.used = used

    def __contains__(self, key: Key) -> bool:
        return key in self._queue

    def __len__(self) -> int:
        return len(self._queue)

    def victim(self) -> Key:
        """The key that would be evicted next; ``KeyError`` if empty."""
        return next(iter(self._queue))


__all__ = ["LRU"]
