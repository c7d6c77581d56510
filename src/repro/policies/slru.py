"""Segmented LRU (Karedla, Love & Wherry, 1994).

SLRU splits the cache into a *probationary* and a *protected* segment,
both LRU-ordered.  Misses enter the probationary segment; a hit
promotes the object into the protected segment; protected overflow
demotes its LRU object back to the probationary segment's MRU end.

SLRU is an early form of quick demotion -- objects never requested
again are confined to (and evicted from) the probationary segment --
but, as the paper notes for 2Q-family designs, its segment is large and
its demotion correspondingly slow compared to the QD wrapper's tiny
10 % probationary FIFO.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.base import EvictionPolicy, Key


class SLRU(EvictionPolicy):
    """Two-segment segmented LRU.

    ``protected_fraction`` controls the protected segment's share of
    the total capacity (0.5 by default; 0.8 is also common in CDN
    deployments).
    """

    name = "SLRU"

    def __init__(self, capacity: int, protected_fraction: float = 0.5) -> None:
        super().__init__(capacity)
        if not 0.0 < protected_fraction < 1.0:
            raise ValueError(
                f"protected_fraction must be in (0, 1), got {protected_fraction}")
        self.protected_capacity = max(1, round(capacity * protected_fraction))
        if self.protected_capacity >= capacity:
            self.protected_capacity = capacity - 1
        if self.protected_capacity < 1:
            # capacity == 1: degenerate to a single probationary slot.
            self.protected_capacity = 0
        self._probationary: "OrderedDict[Key, None]" = OrderedDict()
        self._protected: "OrderedDict[Key, None]" = OrderedDict()

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        if key in self._protected:
            self._protected.move_to_end(key)
            self.stats.promotions += 1
            self.stats.hits += 1
            if self._listeners:
                self._notify_promote(key)
                self._notify_hit(key)
            return True
        if key in self._probationary:
            del self._probationary[key]
            self._promote(key)
            self.stats.promotions += 1
            self.stats.hits += 1
            if self._listeners:
                self._notify_promote(key)
                self._notify_hit(key)
            return True

        self.stats.misses += 1
        if len(self) >= self.capacity:
            victim, _ = self._probationary.popitem(last=False)
            if self._listeners:
                self._notify_evict(victim)
        self._probationary[key] = None
        if self._listeners:
            self._notify_admit(key)
        return False

    def _promote(self, key: Key) -> None:
        """Move *key* into the protected segment, demoting on overflow."""
        if self.protected_capacity == 0:
            self._probationary[key] = None
            return
        if len(self._protected) >= self.protected_capacity:
            demoted, _ = self._protected.popitem(last=False)
            self._probationary[demoted] = None
        self._protected[key] = None

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._probationary or key in self._protected

    def __len__(self) -> int:
        return len(self._probationary) + len(self._protected)

    def in_protected(self, key: Key) -> bool:
        """Whether *key* currently sits in the protected segment."""
        return key in self._protected


__all__ = ["SLRU"]
