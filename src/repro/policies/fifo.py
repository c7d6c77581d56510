"""Plain FIFO eviction.

FIFO is the base of the paper's LEGO construction: no metadata updates
on hits, no promotion at all, eviction strictly in insertion order.  It
is the throughput/scalability gold standard (and flash-friendly: no
write amplification) but, alone, leaves a large miss-ratio headroom --
which Lazy Promotion and Quick Demotion close.

FIFO is also the normalisation baseline of Fig. 5: every algorithm's
efficiency is reported as its miss-ratio reduction from FIFO.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Set

from repro.core.base import EvictionPolicy, Key


class FIFO(EvictionPolicy):
    """First-in first-out eviction; hits touch nothing."""

    name = "FIFO"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._queue: Deque[Key] = deque()
        self._present: Set[Key] = set()

    def request(self, key: Key) -> bool:
        if key in self._present:
            self.stats.hits += 1
            if self._listeners:
                self._notify_hit(key)
            return True
        self.stats.misses += 1
        if len(self._queue) >= self.capacity:
            victim = self._queue.popleft()
            self._present.remove(victim)
            if self._listeners:
                self._notify_evict(victim)
        self._queue.append(key)
        self._present.add(key)
        if self._listeners:
            self._notify_admit(key)
        return False

    def __contains__(self, key: Key) -> bool:
        return key in self._present

    def __len__(self) -> int:
        return len(self._present)


__all__ = ["FIFO"]
