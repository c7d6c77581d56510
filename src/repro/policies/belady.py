"""Belady's MIN: the offline-optimal eviction algorithm (Belady, 1966).

MIN evicts the resident object whose *next* access lies farthest in the
future (or never comes).  It requires knowledge of the whole request
sequence, so it is usable only in simulation -- where it serves as the
efficiency upper bound.  The paper's Fig. 3 / Table 2 use Belady to
show that the optimal policy spends the fewest cache resources on
unpopular objects: perfect quick demotion.

Usage: call :meth:`prepare` with the full trace, then replay requests
in exactly that order (the simulator does this automatically for
:class:`~repro.core.base.OfflinePolicy` instances).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Tuple

from repro.core.base import Key, OfflinePolicy

#: Sentinel next-access index for "never requested again".
NEVER = float("inf")


class Belady(OfflinePolicy):
    """Belady's MIN with a lazily-invalidated max-heap over next uses."""

    name = "Belady"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._next_of_position: List[float] = []
        self._cursor = 0
        #: key -> next access position (NEVER when none)
        self._next_use: Dict[Key, float] = {}
        #: lazy max-heap of (-next_access, key)
        self._heap: List[Tuple[float, int, Key]] = []
        self._tiebreak = 0

    # ------------------------------------------------------------------
    def prepare(self, keys: Iterable[Key]) -> None:
        """Precompute, for each position, the key's next occurrence."""
        sequence = list(keys)
        n = len(sequence)
        next_of_position: List[float] = [NEVER] * n
        last_seen: Dict[Key, int] = {}
        for i in range(n - 1, -1, -1):
            key = sequence[i]
            nxt = last_seen.get(key)
            next_of_position[i] = NEVER if nxt is None else float(nxt)
            last_seen[key] = i
        self._next_of_position = next_of_position
        self._cursor = 0
        self._next_use.clear()
        self._heap.clear()
        self._tiebreak = 0

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        if self._cursor >= len(self._next_of_position):
            raise RuntimeError(
                "Belady received more requests than it was prepared for; "
                "call prepare() with the full trace first")
        next_access = self._next_of_position[self._cursor]
        self._cursor += 1

        if key in self._next_use:
            self._set_next(key, next_access)
            self.stats.hits += 1
            if self._on_hit:
                self._notify_hit(key)
            return True

        self.stats.misses += 1
        if len(self._next_use) >= self.capacity:
            self._evict_one()
        self._set_next(key, next_access)
        if self._on_admit:
            self._notify_admit(key)
        return False

    def _set_next(self, key: Key, next_access: float) -> None:
        self._next_use[key] = next_access
        self._tiebreak += 1
        heapq.heappush(self._heap, (-next_access, self._tiebreak, key))

    def _evict_one(self) -> None:
        while True:
            neg_next, _, key = heapq.heappop(self._heap)
            if self._next_use.get(key) == -neg_next:
                del self._next_use[key]
                if self._on_evict:
                    self._notify_evict(key)
                return

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._next_use

    def __len__(self) -> int:
        return len(self._next_use)


__all__ = ["Belady", "NEVER"]
