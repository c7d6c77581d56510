"""Least Recently Used eviction.

LRU is the reference point the paper argues against: every hit eagerly
promotes the object to the queue head (six pointer updates under a lock
in a real doubly-linked-list implementation), and demotion happens only
passively as other objects are promoted past it -- which is exactly why
unpopular new objects linger so long (§2).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.base import EvictionPolicy, Key


class LRU(EvictionPolicy):
    """Classic LRU over an ordered map.

    The ``OrderedDict`` back end keeps the implementation honest: a hit
    costs a ``move_to_end`` (the eager promotion) and eviction pops the
    least-recent end.
    """

    name = "LRU"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._queue: "OrderedDict[Key, None]" = OrderedDict()

    def request(self, key: Key) -> bool:
        if key in self._queue:
            self._queue.move_to_end(key)
            self.stats.promotions += 1
            self.stats.hits += 1
            if self._listeners:
                self._notify_promote(key)
                self._notify_hit(key)
            return True
        self.stats.misses += 1
        if len(self._queue) >= self.capacity:
            victim, _ = self._queue.popitem(last=False)
            if self._listeners:
                self._notify_evict(victim)
        self._queue[key] = None
        if self._listeners:
            self._notify_admit(key)
        return False

    def __contains__(self, key: Key) -> bool:
        return key in self._queue

    def __len__(self) -> int:
        return len(self._queue)

    def victim(self) -> Key:
        """The key that would be evicted next; ``KeyError`` if empty."""
        return next(iter(self._queue))


__all__ = ["LRU"]
