"""Fast QD-LP-FIFO: probation ring + lazy ghost + k-bit CLOCK main.

Mirrors :class:`repro.core.qd.QDCache` with a :class:`KBitClock` main
cache (the ``QD-LP-FIFO`` configuration).  The probationary FIFO is a
circular buffer (a key's physical slot never changes while resident),
the main cache is the same ring-with-hand used by
:class:`~repro.sim.fast.clock.FastClock`, and ``slot_of`` encodes
residency as ``[0, pcap)`` for probation and ``pcap + slot`` for main.
Probation hits set a visited bit (idempotent scatter); main hits bump
the uncapped frequency (one ``np.add.at``); demotion, graduation and
main-clock sweeps run scalar on the candidate walk, correcting each
examined key for hits that lie after the walk position (binary search
over the chunk's hit index).  Evicted keys with later in-chunk hits
are demoted via ``_inject``; on re-admission the pending hits land on
the key's new slot (``pvis`` bit or ``mfreq`` count).  A key that
*graduates* keeps pending main-frequency credit for its remaining
probation-scattered hits, since those increments never reached the
main counter.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List

import numpy as np

from repro.sim.fast.base import FastEngine
from repro.sim.fast.ghost import FastGhost


class FastQDLP(FastEngine):
    """Array-backed QD wrapper over a k-bit CLOCK main cache."""

    name = "QD-LP-FIFO"

    def __init__(self, capacity: int, num_unique: int,
                 probation_capacity: int, main_capacity: int,
                 ghost_entries: int, bits: int = 2) -> None:
        super().__init__(capacity, num_unique)
        if probation_capacity + main_capacity != capacity:
            raise ValueError("probation + main must equal total capacity")
        self.probation_capacity = int(probation_capacity)
        self.main_capacity = int(main_capacity)
        self.bits = bits
        self.max_freq = (1 << bits) - 1
        self.ghost = FastGhost(ghost_entries)
        self._slot_of = np.full(num_unique, -1, dtype=np.int64)
        pcap, mcap = self.probation_capacity, self.main_capacity
        self._pkeys = np.empty(pcap, dtype=np.int64)
        self._pvis = np.zeros(pcap, dtype=np.uint8)
        self._php = 0    # ring head: next insert position
        self._pn = 0
        self._mkeys = np.empty(mcap, dtype=np.int64)
        self._mfreq = np.zeros(mcap, dtype=np.int64)
        self._mhand = 0
        self._mn = 0
        self._visbefore = None
        self._cleared = {}   # probation slot -> admission position

    # ------------------------------------------------------------------
    def _classify(self, cids):
        slots = self._slot_of[cids]
        return slots >= 0, slots

    def _pre_apply(self, cids, known, aux) -> None:
        slots = aux[known]
        in_probation = slots < self.probation_capacity
        pslots = slots[in_probation]
        visbefore = np.zeros(slots.size, dtype=np.uint8)
        visbefore[in_probation] = self._pvis[pslots]
        self._visbefore = visbefore
        self._pvis[pslots] = 1
        self._mfreq += np.bincount(
            slots[~in_probation] - self.probation_capacity,
            minlength=self.main_capacity)
        self._cleared.clear()

    # ------------------------------------------------------------------
    # Reference algorithm bodies
    # ------------------------------------------------------------------
    def _main_insert(self, k: int, position: int) -> None:
        """``main.request`` on a key known to miss: sweep + insert."""
        mkeys, mfreq, hitpos = self._mkeys, self._mfreq, self._hitpos
        mcap = self.main_capacity
        max_freq = self.max_freq
        pcap = self.probation_capacity
        if self._mn >= mcap:
            hand = self._mhand
            while True:
                victim = mkeys.item(hand)
                fut = (self._future_count(victim, position)
                       if hitpos.item(victim) > position else 0)
                f = mfreq.item(hand) - fut
                if f > 0:
                    mfreq[hand] = ((f if f <= max_freq else max_freq)
                                   - 1 + fut)
                    self._count_promotion(position)
                    hand += 1
                    if hand == mcap:
                        hand = 0
                else:
                    self._slot_of[victim] = -1
                    if fut:
                        self._inject(victim, position)
                    break
            slot = hand
            hand += 1
            self._mhand = 0 if hand == mcap else hand
        else:
            slot = self._mn
            self._mn += 1
        mkeys[slot] = k
        mfreq[slot] = 0
        self._slot_of[k] = pcap + slot

    def _demote_one(self, position: int) -> None:
        """Pop the probation tail: graduate if visited, else ghost."""
        pcap = self.probation_capacity
        tail = (self._php - self._pn) % pcap
        victim = self._pkeys.item(tail)
        if self._hitpos.item(victim) > position:
            occ = self._occ_list(victim)
            done = bisect_right(occ, position)
            fut = len(occ) - done
            c = self._cleared.get(tail)
            if c is None:
                v = done > 0 or bool(
                    self._visbefore[self._hit_ordinal(occ[0])])
            else:
                v = done > bisect_right(occ, c, 0, done)
        else:
            fut = 0
            v = bool(self._pvis.item(tail))
        self._pn -= 1
        if v:
            self._main_insert(victim, position)
            self._count_promotion(position)
            if fut:
                self._mfreq[self._slot_of.item(victim) - pcap] += fut
        else:
            self.ghost.add(victim)
            self._slot_of[victim] = -1
            if fut:
                self._inject(victim, position)

    def _admit(self, k: int, position: int) -> None:
        if self.ghost.remove(k):
            self._main_insert(k, position)
            return
        if self._pn >= self.probation_capacity:
            self._demote_one(position)
        slot = self._php
        self._pkeys[slot] = k
        self._pvis[slot] = 0
        self._slot_of[k] = slot
        self._php = (slot + 1) % self.probation_capacity
        self._pn += 1
        self._cleared[slot] = position

    # ------------------------------------------------------------------
    def _scalar_pass(self, positions: List[int],
                     keys: List[int]) -> List[int]:
        slot_of = self._slot_of
        pvis = self._pvis
        mfreq = self._mfreq
        pcap = self.probation_capacity
        deferred = self._deferred
        extra = []
        for p, k in self._stream(positions, keys):
            s = slot_of.item(k)
            if s >= 0:
                if s < pcap:
                    pvis[s] = 1
                else:
                    mfreq[s - pcap] += 1
                extra.append(p)
                continue
            self._admit(k, p)
            if deferred:
                rest = deferred.pop(k, 0)
                if rest:
                    s = slot_of.item(k)
                    if s < pcap:
                        pvis[s] = 1
                    else:
                        mfreq[s - pcap] += rest
        return extra

    def contents(self) -> set:
        return set(np.nonzero(self._slot_of >= 0)[0].tolist())


__all__ = ["FastQDLP"]
