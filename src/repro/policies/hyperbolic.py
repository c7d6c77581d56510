"""Hyperbolic caching (Blankstein, Sen & Freedman, ATC 2017).

Each object's priority is ``frequency / time-in-cache``; the intuition
is that an object's value is its observed request *rate*, which decays
hyperbolically rather than exponentially.  Because priorities of idle
objects fall continuously, the implementation (like the original)
evicts the lowest-priority object among a random sample rather than
maintaining a total order.

The paper cites hyperbolic caching as an alternative quick-demotion
technique: new objects that attract no requests see their priority
collapse quickly.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.core.base import EvictionPolicy, Key


class Hyperbolic(EvictionPolicy):
    """Sampled hyperbolic eviction.

    ``sample_size=64`` follows the original paper's default.
    """

    name = "Hyperbolic"

    def __init__(self, capacity: int, sample_size: int = 64, seed: int = 0) -> None:
        super().__init__(capacity)
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        self.sample_size = sample_size
        self._rng = random.Random(seed)
        self._clock = 0
        #: key -> (frequency, insert_time)
        self._meta: Dict[Key, Tuple[int, int]] = {}
        self._keys: List[Key] = []
        self._pos: Dict[Key, int] = {}

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        self._clock += 1
        meta = self._meta.get(key)
        if meta is not None:
            freq, born = meta
            self._meta[key] = (freq + 1, born)
            self.stats.hits += 1
            if self._on_hit:
                self._notify_hit(key)
            return True

        self.stats.misses += 1
        if len(self._keys) >= self.capacity:
            self._evict_one()
        self._meta[key] = (1, self._clock)
        self._pos[key] = len(self._keys)
        self._keys.append(key)
        if self._on_admit:
            self._notify_admit(key)
        return False

    def _priority(self, key: Key) -> float:
        freq, born = self._meta[key]
        age = max(1, self._clock - born)
        return freq / age

    def _evict_one(self) -> None:
        n = len(self._keys)
        if n <= self.sample_size:
            sample = self._keys
        else:
            sample = [self._keys[self._rng.randrange(n)]
                      for _ in range(self.sample_size)]
        victim = min(sample, key=self._priority)
        self._remove(victim)
        if self._on_evict:
            self._notify_evict(victim)

    def _remove(self, key: Key) -> None:
        idx = self._pos.pop(key)
        last = self._keys.pop()
        if last is not key:
            self._keys[idx] = last
            self._pos[last] = idx
        del self._meta[key]

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._meta

    def __len__(self) -> int:
        return len(self._keys)


__all__ = ["Hyperbolic"]
