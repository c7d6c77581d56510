"""Random eviction.

A useful sanity baseline: it has FIFO's no-metadata property but no
ordering information at all.  Any algorithm worth running should beat
it on workloads with locality.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.base import EvictionPolicy, Key


class RandomCache(EvictionPolicy):
    """Evicts a uniformly random resident object.

    Uses the swap-pop trick over a position-indexed list for O(1)
    eviction.  Deterministic under a fixed ``seed``.
    """

    name = "Random"

    def __init__(self, capacity: int, seed: int = 0) -> None:
        super().__init__(capacity)
        self._rng = random.Random(seed)
        self._keys: List[Key] = []
        self._pos: Dict[Key, int] = {}

    def request(self, key: Key) -> bool:
        if key in self._pos:
            self.stats.hits += 1
            if self._listeners:
                self._notify_hit(key)
            return True
        self.stats.misses += 1
        if len(self._keys) >= self.capacity:
            self._evict_one()
        self._pos[key] = len(self._keys)
        self._keys.append(key)
        if self._listeners:
            self._notify_admit(key)
        return False

    def _evict_one(self) -> None:
        idx = self._rng.randrange(len(self._keys))
        victim = self._keys[idx]
        last = self._keys.pop()
        if last is not victim:
            self._keys[idx] = last
            self._pos[last] = idx
        del self._pos[victim]
        if self._listeners:
            self._notify_evict(victim)

    def __contains__(self, key: Key) -> bool:
        return key in self._pos

    def __len__(self) -> int:
        return len(self._keys)


__all__ = ["RandomCache"]
