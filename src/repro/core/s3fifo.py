"""S3-FIFO: Simple Scalable caching with three Static FIFO queues.

S3-FIFO is the algorithm this HotOS paper's ideas grew into (Yang et
al., SOSP'23 "FIFO queues are all you need for cache eviction").  It is
included here as the paper's envisioned "LEGO" future work: quick
demotion via a small FIFO + ghost, and lazy promotion via reinsertion
in the main FIFO.

Structure:

* **S** (small): 10 % of the cache space, a plain FIFO.
* **M** (main): 90 % of the cache space, a FIFO with lazy promotion --
  objects with a nonzero frequency counter are reinserted with the
  counter decremented instead of being evicted.
* **G** (ghost): metadata-only FIFO with as many entries as M.

Objects carry a 2-bit saturating frequency counter incremented on hits.
On eviction from S, objects requested more than once move to M; the
rest are evicted and remembered in G.  A miss found in G is admitted
directly into M.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.base import EvictionPolicy, Key
from repro.core.ghost import GhostQueue

_MAX_FREQ = 3


class S3FIFO(EvictionPolicy):
    """The S3-FIFO eviction algorithm.

    Parameters mirror the original paper's defaults: a 10 % small
    queue, frequency saturating at 3, move-to-main threshold of "more
    than one access", and a ghost sized to the main queue.  S and M
    are insertion-ordered dicts of key -> frequency, oldest first.
    """

    name = "S3-FIFO"

    def __init__(
        self,
        capacity: int,
        small_fraction: float = 0.1,
        ghost_factor: float = 1.0,
    ) -> None:
        super().__init__(capacity)
        if capacity < 2:
            raise ValueError("S3FIFO needs capacity >= 2")
        if not 0.0 < small_fraction < 1.0:
            raise ValueError(
                f"small_fraction must be in (0, 1), got {small_fraction}")
        self.small_capacity = max(1, round(capacity * small_fraction))
        self.main_capacity = capacity - self.small_capacity
        if self.main_capacity < 1:
            self.main_capacity = 1
            self.small_capacity = capacity - 1
        self._small: "OrderedDict[Key, int]" = OrderedDict()
        self._main: "OrderedDict[Key, int]" = OrderedDict()
        self.ghost = GhostQueue(round(self.main_capacity * ghost_factor))

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        queue = self._small if key in self._small else self._main
        if key in queue:
            freq = queue[key]
            if freq < _MAX_FREQ:
                queue[key] = freq + 1
            self.stats.hits += 1
            if self._on_hit:
                self._notify_hit(key)
            return True

        self.stats.misses += 1
        if self.ghost.remove(key):
            if self._on_ghost_hit:
                self._notify_ghost_hit(key)
            self._insert_main(key)
        else:
            self._insert_small(key)
        if self._on_admit:
            self._notify_admit(key)
        return False

    # ------------------------------------------------------------------
    def _insert_small(self, key: Key) -> None:
        while len(self._small) >= self.small_capacity:
            self._evict_from_small()
        self._small[key] = 0

    def _insert_main(self, key: Key) -> None:
        while len(self._main) >= self.main_capacity:
            self._evict_from_main()
        self._main[key] = 0

    def _evict_from_small(self) -> None:
        """Pop S's oldest: graduate hot objects to M, ghost the rest."""
        key, freq = self._small.popitem(last=False)
        if freq > 1:
            self._insert_main(key)
            self.stats.promotions += 1
            if self._on_promote:
                self._notify_promote(key)
        else:
            self.ghost.add(key)
            if self._on_evict:
                self._notify_evict(key)

    def _evict_from_main(self) -> None:
        """Pop M's oldest with lazy promotion: reinsert while freq > 0."""
        main = self._main
        while True:
            key, freq = main.popitem(last=False)
            if not freq:
                if self._on_evict:
                    self._notify_evict(key)
                return
            main[key] = freq - 1
            self.stats.promotions += 1
            if self._on_promote:
                self._notify_promote(key)

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._small or key in self._main

    def __len__(self) -> int:
        return len(self._small) + len(self._main)

    def in_small(self, key: Key) -> bool:
        """Whether *key* is in the small (probationary) FIFO."""
        return key in self._small

    def in_main(self, key: Key) -> bool:
        """Whether *key* is in the main FIFO."""
        return key in self._main


__all__ = ["S3FIFO"]
