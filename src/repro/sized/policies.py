"""GDSF, the size-aware baseline policy.

FIFO, LRU and k-bit CLOCK take ``request(key, size)`` as they are, and
the size-aware Quick Demotion wrapper builds on them.  GDSF
(Greedy-Dual-Size-Frequency, a descendant of Cao & Irani's
GreedyDual-Size) has no unsized twin: it is the classic size-aware
web-caching policy and serves as the strong baseline: priority = L +
frequency / size, where L is an inflation clock equal to the last
evicted priority.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.core.base import EvictionPolicy, Key, check_size


class GDSF(EvictionPolicy):
    """Greedy-Dual-Size-Frequency.

    Each object's priority is ``L + frequency / size``; eviction takes
    the minimum-priority object and raises the inflation clock ``L``
    to that priority, so long-idle objects age out relative to new
    arrivals.  Favouring small, hot objects gives GDSF excellent
    *object* miss ratios on web workloads (often at some cost in byte
    miss ratio).
    """

    name = "GDSF"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.used = 0
        self._inflation = 0.0
        #: key -> (priority, frequency, size)
        self._meta: Dict[Key, Tuple[float, int, int]] = {}
        self._heap: List[Tuple[float, int, Key]] = []
        self._counter = 0

    def _push(self, key: Key, freq: int, size: int) -> None:
        priority = self._inflation + freq / size
        self._meta[key] = (priority, freq, size)
        self._counter += 1
        heapq.heappush(self._heap, (priority, self._counter, key))

    def request(self, key: Key, size: int) -> bool:
        check_size(size)
        meta = self._meta.get(key)
        if meta is not None:
            _, freq, cached_size = meta
            if cached_size != size:
                self.used += size - cached_size
            self._push(key, freq + 1, size)
            self._shrink(skip=key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if not self.admits(size):
            return False
        while self.used + size > self.capacity:
            self._evict_one()
        self._push(key, 1, size)
        self.used += size
        self._notify_admit(key, size)
        return False

    def _evict_one(self) -> None:
        while True:
            priority, counter, key = heapq.heappop(self._heap)
            meta = self._meta.get(key)
            if meta is not None and meta[0] == priority:
                # Only the newest heap entry for a key is live.
                del self._meta[key]
                self.used -= meta[2]
                self._inflation = priority
                self._notify_evict(key, meta[2])
                return

    def _shrink(self, skip: Key) -> None:
        # Resizing an object upward can overflow the budget; evict
        # other objects (never the one just touched).  The skip entry
        # is set aside, not pushed back: when the resized object is
        # the minimum-priority live entry, an immediate push-back
        # would pop it again forever.
        skip_entry: Optional[Tuple[float, int, Key]] = None
        while self.used > self.capacity:
            if skip_entry is not None and len(self._meta) == 1:
                # Everything else is gone and the resized object
                # alone still does not fit: drop it too.
                priority, _, key = skip_entry
                dropped = self._meta.pop(key)[2]
                self.used -= dropped
                # The evictions above may have raised the clock past
                # the stashed priority; never wind it back.
                self._inflation = max(self._inflation, priority)
                self._notify_evict(key, dropped)
                return
            priority, counter, key = heapq.heappop(self._heap)
            meta = self._meta.get(key)
            if meta is None or meta[0] != priority:
                continue
            if key == skip:
                if len(self._meta) == 1:
                    # The resized object alone no longer fits: drop it.
                    del self._meta[key]
                    self.used -= meta[2]
                    self._inflation = priority
                    self._notify_evict(key, meta[2])
                    return
                skip_entry = (priority, counter, key)
                continue
            del self._meta[key]
            self.used -= meta[2]
            self._inflation = priority
            self._notify_evict(key, meta[2])
        if skip_entry is not None:
            heapq.heappush(self._heap, skip_entry)

    def __contains__(self, key: Key) -> bool:
        return key in self._meta

    def __len__(self) -> int:
        return len(self._meta)


__all__ = ["GDSF"]
