"""ARC: Adaptive Replacement Cache (Megiddo & Modha, FAST 2003).

ARC splits the cache into a recency list **T1** and a frequency list
**T2**, each shadowed by a metadata-only ghost list (**B1**, **B2**).
A ghost hit in B1 (an object evicted from T1 too soon) grows the target
size ``p`` of T1; a ghost hit in B2 shrinks it -- the cache continuously
adapts its recency/frequency balance to the workload.

ARC is the strongest of the five state-of-the-art algorithms in the
paper's study (it reduces LRU's miss ratio by 6.2 % on average across
the 5307 traces) and also the one the QD wrapper improves the least --
yet QD-ARC still wins by 2.3 % on average at the large cache size.
The implementation below follows the FAST'03 pseudocode exactly.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.base import EvictionPolicy, Key


class ARC(EvictionPolicy):
    """Adaptive Replacement Cache, faithful to the original pseudocode."""

    name = "ARC"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.p = 0.0  # target size of T1, adapted online
        self._t1: "OrderedDict[Key, None]" = OrderedDict()
        self._t2: "OrderedDict[Key, None]" = OrderedDict()
        self._b1: "OrderedDict[Key, None]" = OrderedDict()
        self._b2: "OrderedDict[Key, None]" = OrderedDict()

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        # Case I: hit in T1 or T2 -> promote to T2's MRU end.
        if key in self._t1:
            del self._t1[key]
            self._t2[key] = None
            self.stats.promotions += 1
            self.stats.hits += 1
            if self._listeners:
                if self._on_promote:
                    self._notify_promote(key)
                if self._on_hit:
                    self._notify_hit(key)
            return True
        if key in self._t2:
            self._t2.move_to_end(key)
            self.stats.promotions += 1
            self.stats.hits += 1
            if self._listeners:
                if self._on_promote:
                    self._notify_promote(key)
                if self._on_hit:
                    self._notify_hit(key)
            return True

        self.stats.misses += 1
        c = self.capacity

        # Case II: ghost hit in B1 -> favour recency.
        if key in self._b1:
            delta = max(len(self._b2) / len(self._b1), 1.0)
            self.p = min(float(c), self.p + delta)
            self._replace(key)
            del self._b1[key]
            self._t2[key] = None
            if self._on_admit:
                self._notify_admit(key)
            return False

        # Case III: ghost hit in B2 -> favour frequency.
        if key in self._b2:
            delta = max(len(self._b1) / len(self._b2), 1.0)
            self.p = max(0.0, self.p - delta)
            self._replace(key)
            del self._b2[key]
            self._t2[key] = None
            if self._on_admit:
                self._notify_admit(key)
            return False

        # Case IV: a completely new key.
        l1 = len(self._t1) + len(self._b1)
        if l1 == c:
            if len(self._t1) < c:
                self._b1.popitem(last=False)
                self._replace(key)
            else:
                # B1 is empty and T1 is full: evict T1's LRU outright.
                victim, _ = self._t1.popitem(last=False)
                if self._on_evict:
                    self._notify_evict(victim)
        else:
            total = l1 + len(self._t2) + len(self._b2)
            if total >= c:
                if total == 2 * c:
                    self._b2.popitem(last=False)
                self._replace(key)
        self._t1[key] = None
        if self._on_admit:
            self._notify_admit(key)
        return False

    def _replace(self, key: Key) -> None:
        """Evict one resident object into the appropriate ghost list."""
        if self._t1 and (
            len(self._t1) > self.p
            or (key in self._b2 and len(self._t1) == self.p)
        ):
            victim, _ = self._t1.popitem(last=False)
            self._b1[victim] = None
        else:
            victim, _ = self._t2.popitem(last=False)
            self._b2[victim] = None
        if self._on_evict:
            self._notify_evict(victim)

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._t1 or key in self._t2

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def in_t1(self, key: Key) -> bool:
        """Whether *key* is in the recency list T1."""
        return key in self._t1

    def in_t2(self, key: Key) -> bool:
        """Whether *key* is in the frequency list T2."""
        return key in self._t2


__all__ = ["ARC"]
