"""SIEVE: the single-queue lazy-promotion algorithm this paper inspired.

SIEVE (Zhang et al., NSDI'24 "SIEVE is simpler than LRU") distils lazy
promotion + quick demotion into one FIFO queue and one moving *hand*:

* A hit sets the object's ``visited`` bit (no movement, no lock).
* On eviction, the hand scans from its current position toward the
  newest object, clearing ``visited`` bits, and evicts the first
  unvisited object it meets.  Crucially -- unlike CLOCK -- survivors
  are *not* reinserted as the newest; they keep their queue position,
  so new objects are examined by the hand sooner than old survivors.
  That asymmetry is quick demotion.

The queue, oldest first, is split at the hand into two deques:
``_behind`` holds the oldest object up to the hand and ``_ahead`` the
hand up to the newest, so the hand is ``_ahead[0]``.  A hand step pops
the left end of ``_ahead`` and appends a survivor to ``_behind``, which
keeps its place in the queue; an insertion appends to ``_ahead``.

Included as a "future work" extension alongside S3-FIFO.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.core.base import EvictionPolicy, Key


class Sieve(EvictionPolicy):
    """The SIEVE eviction algorithm."""

    name = "SIEVE"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._visited: Dict[Key, bool] = {}
        self._behind: Deque[Key] = deque()
        self._ahead: Deque[Key] = deque()

    def request(self, key: Key) -> bool:
        visited = self._visited
        if key in visited:
            visited[key] = True
            self.stats.hits += 1
            if self._on_hit:
                self._notify_hit(key)
            return True
        self.stats.misses += 1
        if len(visited) >= self.capacity:
            self._evict_one()
        visited[key] = False
        self._ahead.append(key)
        if self._on_admit:
            self._notify_admit(key)
        return False

    def _evict_one(self) -> None:
        """Advance the hand toward the newest until an unvisited object."""
        visited = self._visited
        behind, ahead = self._behind, self._ahead
        while True:
            if not ahead:
                # The hand passed the newest object: wrap to the oldest.
                behind, ahead = ahead, behind
            key = ahead.popleft()
            if not visited[key]:
                break
            visited[key] = False
            behind.append(key)
        del visited[key]
        if not ahead:
            # The victim was the newest: the next scan starts at the
            # oldest, not at the object about to be inserted.
            behind, ahead = ahead, behind
        self._behind, self._ahead = behind, ahead
        if self._on_evict:
            self._notify_evict(key)

    def __contains__(self, key: Key) -> bool:
        return key in self._visited

    def __len__(self) -> int:
        return len(self._visited)


__all__ = ["Sieve"]
