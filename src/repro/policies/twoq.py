"""2Q (Johnson & Shasha, VLDB 1994).

The "full version" of 2Q: a FIFO admission queue **A1in** (25 % of the
cache space by default), a metadata-only ghost **A1out** (entries for
50 % of the cache size), and a main LRU **Am**.  First-time misses go
to A1in and are *not* promoted on hits there (correlated references);
objects that miss again while remembered in A1out are judged truly hot
and admitted into Am.

2Q is the classic ancestor of quick demotion: the paper contrasts its
large admission queue with the QD wrapper's tiny 10 % probationary
FIFO.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Set

from repro.core.base import EvictionPolicy, Key
from repro.core.ghost import GhostQueue


class TwoQ(EvictionPolicy):
    """The full 2Q algorithm.

    ``kin_fraction`` sizes A1in as a share of the cache space and
    ``kout_fraction`` sizes the A1out ghost as a share of the cache's
    entry count, following the original paper's recommended 25 %/50 %.
    """

    name = "2Q"

    def __init__(
        self,
        capacity: int,
        kin_fraction: float = 0.25,
        kout_fraction: float = 0.5,
    ) -> None:
        super().__init__(capacity)
        self.kin = max(1, round(capacity * kin_fraction))
        if self.kin >= capacity:
            self.kin = max(1, capacity - 1)
        self.kout = max(1, round(capacity * kout_fraction))
        self._a1in: Deque[Key] = deque()
        self._a1in_set: Set[Key] = set()
        self._a1out = GhostQueue(self.kout)
        self._am: "OrderedDict[Key, None]" = OrderedDict()

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        if key in self._am:
            self._am.move_to_end(key)
            self.stats.promotions += 1
            self.stats.hits += 1
            if self._listeners:
                self._notify_promote(key)
                self._notify_hit(key)
            return True
        if key in self._a1in_set:
            # Correlated reference: 2Q deliberately does nothing.
            self.stats.hits += 1
            if self._listeners:
                self._notify_hit(key)
            return True

        self.stats.misses += 1
        if key in self._a1out:
            self._a1out.remove(key)
            if self._listeners:
                self._notify_ghost_hit(key)
            self._reclaim()
            self._am[key] = None
        else:
            self._reclaim()
            self._a1in.append(key)
            self._a1in_set.add(key)
        if self._listeners:
            self._notify_admit(key)
        return False

    def _reclaim(self) -> None:
        """Free one slot if the cache is full (the 2Q `reclaimfor`)."""
        if len(self) < self.capacity:
            return
        if len(self._a1in) >= self.kin or not self._am:
            victim = self._a1in.popleft()
            self._a1in_set.remove(victim)
            self._a1out.add(victim)
        else:
            victim, _ = self._am.popitem(last=False)
        if self._listeners:
            self._notify_evict(victim)

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._a1in_set or key in self._am

    def __len__(self) -> int:
        return len(self._a1in) + len(self._am)

    def in_a1in(self, key: Key) -> bool:
        """Whether *key* is in the A1in admission FIFO."""
        return key in self._a1in_set

    def in_am(self, key: Key) -> bool:
        """Whether *key* is in the Am main LRU."""
        return key in self._am


__all__ = ["TwoQ"]
