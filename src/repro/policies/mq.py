"""Multi-Queue (MQ) replacement (Zhou, Philbin & Li, ATC 2001).

MQ maintains *m* LRU queues Q0..Q(m-1); an object with reference count
``c`` lives in queue ``min(floor(log2(c)), m-1)``, so hotter objects sit
in higher queues.  Each object carries an expiry time; when the LRU end
of a queue expires, the object is demoted one queue down -- MQ's
explicit (but still slow, as the paper argues) demotion mechanism.
Evicted objects are remembered in a ghost queue **Qout** together with
their reference counts, which are restored on re-admission.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.base import EvictionPolicy, Key


class MQ(EvictionPolicy):
    """The MQ algorithm with *m* frequency-tiered LRU queues.

    ``lifetime`` is the residency time (in requests) before a queue
    head is demoted; the original paper derives it from the peak
    temporal distance, and twice the cache size is a standard static
    choice.  ``ghost_factor`` sizes Qout in multiples of the cache's
    entry count.
    """

    name = "MQ"

    def __init__(
        self,
        capacity: int,
        num_queues: int = 8,
        lifetime: Optional[int] = None,
        ghost_factor: float = 2.0,
    ) -> None:
        super().__init__(capacity)
        if num_queues < 1:
            raise ValueError(f"num_queues must be >= 1, got {num_queues}")
        self.num_queues = num_queues
        self.lifetime = lifetime if lifetime is not None else 2 * capacity
        self._queues: List["OrderedDict[Key, None]"] = [
            OrderedDict() for _ in range(num_queues)
        ]
        #: key -> (frequency, expire_time, queue_index)
        self._meta: Dict[Key, Tuple[int, int, int]] = {}
        self._qout: "OrderedDict[Key, int]" = OrderedDict()
        self._qout_max = max(1, round(capacity * ghost_factor))
        self._clock = 0
        self._size = 0

    # ------------------------------------------------------------------
    def _queue_index(self, freq: int) -> int:
        if freq < 2:
            return 0
        return min(int(math.log2(freq)), self.num_queues - 1)

    def _place(self, key: Key, freq: int) -> None:
        idx = self._queue_index(freq)
        self._queues[idx][key] = None
        self._meta[key] = (freq, self._clock + self.lifetime, idx)

    def _adjust(self) -> None:
        """Demote expired queue heads one level down (MQ's Adjust)."""
        for idx in range(1, self.num_queues):
            queue = self._queues[idx]
            if not queue:
                continue
            head = next(iter(queue))
            freq, expire, _ = self._meta[head]
            if expire < self._clock:
                del queue[head]
                self._queues[idx - 1][head] = None
                self._meta[head] = (freq, self._clock + self.lifetime, idx - 1)

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        self._clock += 1
        meta = self._meta.get(key)
        if meta is not None:
            freq, _, idx = meta
            del self._queues[idx][key]
            self._place(key, freq + 1)
            self.stats.promotions += 1
            self._adjust()
            self.stats.hits += 1
            if self._listeners:
                self._notify_promote(key)
                self._notify_hit(key)
            return True

        self.stats.misses += 1
        if self._size >= self.capacity:
            self._evict_one()
        freq = self._qout.pop(key, 0) + 1
        self._place(key, freq)
        self._size += 1
        self._adjust()
        if self._listeners:
            self._notify_admit(key)
        return False

    def _evict_one(self) -> None:
        for queue in self._queues:
            if queue:
                victim, _ = queue.popitem(last=False)
                freq, _, _ = self._meta.pop(victim)
                self._remember(victim, freq)
                self._size -= 1
                if self._listeners:
                    self._notify_evict(victim)
                return
        raise RuntimeError("evict called on empty MQ cache")

    def _remember(self, key: Key, freq: int) -> None:
        if key in self._qout:
            self._qout.move_to_end(key)
            self._qout[key] = freq
            return
        if len(self._qout) >= self._qout_max:
            self._qout.popitem(last=False)
        self._qout[key] = freq

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._meta

    def __len__(self) -> int:
        return self._size

    def queue_of(self, key: Key) -> int:
        """The queue index *key* currently occupies; ``KeyError`` if absent."""
        return self._meta[key][2]


__all__ = ["MQ"]
