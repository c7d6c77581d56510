"""SIEVE: the single-queue lazy-promotion algorithm this paper inspired.

SIEVE (Zhang et al., NSDI'24 "SIEVE is simpler than LRU") distils lazy
promotion + quick demotion into one FIFO queue and one moving *hand*:

* A hit sets the object's ``visited`` bit (no movement, no lock).
* On eviction, the hand scans from its current position toward the
  head, clearing ``visited`` bits, and evicts the first unvisited
  object it meets.  Crucially -- unlike CLOCK -- survivors are *not*
  reinserted at the head; they keep their queue position, so new
  objects inserted at the head are examined by the hand sooner than
  old survivors.  That asymmetry is quick demotion.

Included as a "future work" extension alongside S3-FIFO.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import EvictionPolicy, Key
from repro.utils.linkedlist import KeyedList, Node


class Sieve(EvictionPolicy):
    """The SIEVE eviction algorithm."""

    name = "SIEVE"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._queue: KeyedList[Key] = KeyedList()
        self._hand: Optional[Node[Key]] = None

    def request(self, key: Key) -> bool:
        node = self._queue.get(key)
        if node is not None:
            node.visited = True
            self.stats.hits += 1
            if self._on_hit:
                self._notify_hit(key)
            return True
        self.stats.misses += 1
        if len(self._queue) >= self.capacity:
            self._evict_one()
        self._queue.push_head(key)
        if self._on_admit:
            self._notify_admit(key)
        return False

    def _evict_one(self) -> None:
        """Advance the hand tail -> head until an unvisited object."""
        node = self._hand if self._hand is not None else self._queue.tail
        assert node is not None, "evict called on empty queue"
        while node.visited:
            node.visited = False
            node = node.prev if node.prev is not None else self._queue.tail
        # The hand rests on the victim's predecessor (toward the head);
        # when the victim was the head, the next scan restarts at the
        # tail -- exactly the published algorithm's wrap-around.
        self._hand = node.prev
        self._queue.remove_node(node)
        if self._on_evict:
            self._notify_evict(node.key)

    def __contains__(self, key: Key) -> bool:
        return key in self._queue

    def __len__(self) -> int:
        return len(self._queue)


__all__ = ["Sieve"]
