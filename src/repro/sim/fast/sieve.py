"""Fast SIEVE: visited bits vectorized, hand sweeps scalar.

SIEVE survivors keep their queue position (no reinsertion), so the
queue is kept as an explicit doubly-linked list over preallocated slot
arrays (``prv`` toward the head / newest, ``nxt`` toward the tail /
oldest), exactly mirroring the reference ``KeyedList`` topology.  Hits
only set a visited bit -- idempotent, so one boolean scatter per chunk
covers every classified hit regardless of multiplicity.

The scatter assumes every hit already happened, so when the hand
examines a key whose last hit lies after the walk position the bit is
recomputed exactly from the chunk's hit index: the reference bit at
position *p* is "set since the last time it was cleared".  ``_cleared``
remembers, per slot, the chunk position of the most recent clear
(sweep pass or fresh insertion); before that the baseline is the
gathered before-chunk bit kept by ``_pre_apply``.  A surviving key's
bit is left as "will it be set by the remaining hits" (the pre-applied
convention); an evicted key's later hits are demoted via ``_inject``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List

import numpy as np

from repro.sim.fast.base import FastEngine


class FastSieve(FastEngine):
    """Array-backed SIEVE."""

    name = "SIEVE"

    def __init__(self, capacity: int, num_unique: int) -> None:
        super().__init__(capacity, num_unique)
        self._slot_of = np.full(num_unique, -1, dtype=np.int64)
        self._keys = np.empty(capacity, dtype=np.int64)
        self._vis = np.zeros(capacity, dtype=np.uint8)
        self._prv = np.empty(capacity, dtype=np.int64)
        self._nxt = np.empty(capacity, dtype=np.int64)
        self._visbefore = None
        self._cleared = {}
        self._head = -1
        self._tail = -1
        self._hand = -1
        self._size = 0

    # ------------------------------------------------------------------
    def _classify(self, cids):
        slots = self._slot_of[cids]
        return slots >= 0, slots

    def _pre_apply(self, cids, known, aux) -> None:
        slots = aux[known]
        self._visbefore = self._vis[slots]      # gather copies
        self._vis[slots] = 1
        self._cleared.clear()

    def _bit_at(self, slot: int, occ: List[int], done: int,
                position: int) -> bool:
        """Reference visited bit at *position* for a conflicted key:
        *occ* is its chunk hit-position list, *done* the count of
        hits <= p."""
        c = self._cleared.get(slot)
        if c is None:
            return done > 0 or bool(self._visbefore[self._hit_ordinal(occ[0])])
        if c >= position:
            return False
        return done > bisect_right(occ, c, 0, done)

    # ------------------------------------------------------------------
    def _insert_resolve(self, k: int, position: int) -> None:
        """Reference request-miss body: evict if full, push at head."""
        slot_of = self._slot_of
        skeys = self._keys
        vis = self._vis
        prv = self._prv
        nxt = self._nxt
        cleared = self._cleared
        if self._size >= self.capacity:
            node = self._hand if self._hand >= 0 else self._tail
            hitpos = self._hitpos
            while True:
                victim = skeys.item(node)
                if hitpos.item(victim) > position:
                    occ = self._occ_list(victim)
                    done = bisect_right(occ, position)
                    fut = len(occ) - done
                    v = self._bit_at(node, occ, done, position)
                else:
                    fut = 0
                    v = bool(vis.item(node))
                if v:
                    # Cleared now; leave the pre-applied "will be set
                    # by the remaining hits" value behind.
                    vis[node] = 1 if fut else 0
                    cleared[node] = position
                    p = prv.item(node)
                    node = p if p >= 0 else self._tail
                else:
                    if fut:
                        self._inject(victim, position)
                    break
            # The hand rests on the victim's predecessor; unlink the
            # victim and reuse its slot for the new head.
            p = prv.item(node)
            x = nxt.item(node)
            self._hand = p
            if p >= 0:
                nxt[p] = x
            else:
                self._head = x
            if x >= 0:
                prv[x] = p
            else:
                self._tail = p
            slot_of[victim] = -1
            s = node
        else:
            s = self._size
            self._size += 1
        skeys[s] = k
        vis[s] = 0
        cleared[s] = position
        prv[s] = -1
        nxt[s] = self._head
        if self._head >= 0:
            prv[self._head] = s
        self._head = s
        if self._tail < 0:
            self._tail = s
        slot_of[k] = s

    def _scalar_pass(self, positions: List[int],
                     keys: List[int]) -> List[int]:
        slot_of = self._slot_of
        vis = self._vis
        deferred = self._deferred
        extra = []
        for p, k in self._stream(positions, keys):
            s = slot_of.item(k)
            if s >= 0:
                vis[s] = 1
                extra.append(p)
                continue
            self._insert_resolve(k, p)
            if deferred and deferred.pop(k, 0):
                vis[slot_of.item(k)] = 1
        return extra

    def contents(self) -> set:
        return set(np.nonzero(self._slot_of >= 0)[0].tolist())


__all__ = ["FastSieve"]
