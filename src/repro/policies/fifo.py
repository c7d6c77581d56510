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
from typing import Deque, Dict

from repro.core.base import EvictionPolicy, Key, check_size


class FIFO(EvictionPolicy):
    """First-in first-out eviction; hits touch nothing.

    Every object weighs 1 unless its request gives a *size* (the
    byte-budgeted ``Sized-FIFO``); ``used``, the residents' total
    weight, never exceeds ``capacity``.  An object heavier than the
    cache is a miss that caches nothing.
    """

    name = "FIFO"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._queue: Deque[Key] = deque()
        #: resident key -> weight
        self._weights: Dict[Key, int] = {}
        self.used = 0

    def request(self, key: Key, size: int = 1) -> bool:
        weights = self._weights
        if key in weights:
            if weights[key] != size:
                self._resize(key, weights[key], size)
            self.stats.hits += 1
            if self._on_hit:
                self._notify_hit(key)
            return True
        if not 0 < size <= self.capacity:
            return self._bypass(size)
        self.stats.misses += 1
        queue = self._queue
        used = self.used + size
        while used > self.capacity:
            victim = queue.popleft()
            victim_weight = weights.pop(victim)
            used -= victim_weight
            if self._on_evict:
                self._notify_evict(victim, victim_weight)
        queue.append(key)
        weights[key] = size
        self.used = used
        if self._on_admit:
            self._notify_admit(key, size)
        return False

    def _resize(self, key: Key, weight: int, size: int) -> None:
        """Re-weigh resident *key* in place, then evict oldest first
        until it fits -- *key* itself only once it is alone."""
        check_size(size)
        weights, queue = self._weights, self._queue
        weights[key] = size
        self.used += size - weight
        while self.used > self.capacity:
            victim = queue.popleft()
            if victim == key and queue:
                victim = queue.popleft()
                queue.appendleft(key)
            victim_weight = weights.pop(victim)
            self.used -= victim_weight
            if self._on_evict:
                self._notify_evict(victim, victim_weight)

    def __contains__(self, key: Key) -> bool:
        return key in self._weights

    def __len__(self) -> int:
        return len(self._weights)


__all__ = ["FIFO"]
