"""Fast QD-LHD: probation ring + ghost in front of an LHD main cache.

Mirrors :class:`repro.core.qd.QDCache` with an
:class:`~repro.policies.lhd.LHD` main cache -- the paper's "QD in
front of a state-of-the-art policy" composition for LHD.  The
probationary FIFO is a ring of slots with visited bits, the ghost is a
:class:`~repro.sim.fast.ghost.FastGhost`, and the main cache is
:class:`_LHDCore`.

LHD cannot be vectorized under the wrapper: its logical clock ticks
once per *main* request, so every age (and therefore every histogram
bucket) depends on how many graduations and ghost admissions the walk
discovers earlier in the chunk.  The core instead replays main events
scalar in exact reference order: all classified hits enter a per-chunk
event stream, each event validated at fire time against main residency
(probation hits and stale events drop out), and every fired hit /
insert ticks the clock, updates the age histograms and runs
reconfigurations precisely where the reference would.  State, sampled
eviction and the density sweep are those of
:class:`~repro.sim.fast.lhd.LHDCore`, whose metadata is always current,
so evictions read exact state with no occurrence reconstruction.

Promotions are graduations, counted by the wrapper via
``_count_promotion``: LHD itself never reorders a queue.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List

import numpy as np

from repro.policies.lhd import _CLASS_REUSED, _age_bucket
from repro.sim.fast.base import FastEngine
from repro.sim.fast.ghost import FastGhost
from repro.sim.fast.lhd import LHDCore


class _LHDCore(LHDCore):
    """LHD main cache: scalar main-event replay on the shared LHD core.

    Every classified hit becomes a pending event; ``advance`` fires
    events in position order, keeping only those whose key is
    main-resident *at that point of the walk* -- which is exactly the
    set of composite hits the reference serves from its inner LHD.
    The core's clock ticks once per main request.
    """

    def __init__(self, host: "FastQDLHD", capacity: int,
                 **params) -> None:
        super().__init__(capacity, host.num_unique, **params)
        self._host = host
        self._clock = 0
        self._ev_pos: List[int] = []
        self._ev_keys: List[int] = []
        self._evi = 0

    def resident(self, k: int) -> bool:
        return self.kpos[k] >= 0

    def pre_hits(self, cids: np.ndarray, hidx: np.ndarray) -> None:
        """Queue the chunk's classified hits (positions *hidx*) as
        pending main-hit events."""
        self._ev_pos = hidx.tolist()
        self._ev_keys = cids[hidx].tolist()
        self._evi = 0

    def advance(self, p: int) -> None:
        """Fire every pending main-hit event at a position <= *p*.

        The inlined body is ``hit`` below: one clock tick, one age
        histogram bump, metadata refresh.
        """
        pos = self._ev_pos
        i = self._evi
        n = len(pos)
        if i >= n or pos[i] > p:
            return
        keys = self._ev_keys
        kpos = self.kpos
        mlast = self.mlast
        mklass = self.mklass
        hists = self.hit_hist
        clock = self._clock
        next_reconf = self.next_reconf
        while i < n and pos[i] <= p:
            k = keys[i]
            i += 1
            if kpos[k] < 0:
                continue
            clock += 1
            if clock >= next_reconf:
                self.reconfigure()
                next_reconf = self.next_reconf
            bucket = (clock - mlast[k] + 1).bit_length() - 1
            hists[mklass[k]][bucket if bucket < 31 else 31] += 1.0
            mlast[k] = clock
            mklass[k] = _CLASS_REUSED
        self._evi = i
        self._clock = clock

    def _tick(self) -> int:
        self._clock += 1
        if self._clock >= self.next_reconf:
            self.reconfigure()
        return self._clock

    def hit(self, k: int) -> None:
        """``main.request`` on a walk-discovered main hit."""
        clock = self._tick()
        self.hit_hist[self.mklass[k]][_age_bucket(clock - self.mlast[k])] \
            += 1.0
        self.mlast[k] = clock
        self.mklass[k] = _CLASS_REUSED

    def insert(self, k: int, p: int) -> None:
        """``main.request`` on a key known to miss, at walk position *p*."""
        victim = self.admit(k, self._tick())
        host = self._host
        if victim >= 0 and host._hitpos.item(victim) > p:
            # Pending events for the victim's later occurrences drop on
            # residency validation; the first becomes a composite miss.
            host._inject(victim, p)

    def finish(self) -> None:
        """Fire the chunk's remaining events."""
        self.advance(1 << 62)


class FastQDLHD(FastEngine):
    """Array-backed QD wrapper over an LHD main cache."""

    name = "QD-LHD"

    def __init__(self, capacity: int, num_unique: int,
                 probation_capacity: int, main_capacity: int,
                 ghost_entries: int, **lhd_params) -> None:
        super().__init__(capacity, num_unique)
        if probation_capacity + main_capacity != capacity:
            raise ValueError("probation + main must equal total capacity")
        self.probation_capacity = int(probation_capacity)
        self.main_capacity = int(main_capacity)
        self.ghost = FastGhost(ghost_entries)
        self._pslot = np.full(num_unique, -1, dtype=np.int64)
        pcap = self.probation_capacity
        self._pkeys = np.empty(pcap, dtype=np.int64)
        self._pvis = np.zeros(pcap, dtype=np.uint8)
        self._php = 0    # ring head: next insert position
        self._pn = 0
        self._visbefore = None
        self._cleared = {}   # probation slot -> admission position
        self.core = _LHDCore(self, self.main_capacity, **lhd_params)

    # ------------------------------------------------------------------
    def _classify(self, cids):
        ps = self._pslot[cids]
        known = ps >= 0
        known |= self.core.resident_mask(cids)
        return known, ps

    def _pre_apply(self, cids, known, aux) -> None:
        hidx = np.nonzero(known)[0]
        slots = aux[known]
        in_prob = slots >= 0
        pslots = slots[in_prob]
        visbefore = np.zeros(slots.size, dtype=np.uint8)
        visbefore[in_prob] = self._pvis[pslots]
        self._visbefore = visbefore
        self._pvis[pslots] = 1
        self._cleared.clear()
        self.core.pre_hits(cids, hidx)

    def _post_apply(self, cids, known, aux) -> None:
        self.core.finish()

    # ------------------------------------------------------------------
    # Reference algorithm bodies
    # ------------------------------------------------------------------
    def _insert_main(self, k: int, position: int) -> None:
        """``main.request`` on a key known to miss there."""
        self._pslot[k] = -1
        self.core.insert(k, position)

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
            self._insert_main(victim, position)
            self._count_promotion(position)
        else:
            self.ghost.add(victim)
            self._pslot[victim] = -1
            if fut:
                self._inject(victim, position)

    # ------------------------------------------------------------------
    def _scalar_pass(self, positions: List[int],
                     keys: List[int]) -> List[int]:
        core = self.core
        pslot = self._pslot
        pvis = self._pvis
        pkeys = self._pkeys
        pcap = self.probation_capacity
        deferred = self._deferred
        extra = []
        for p, k in self._stream(positions, keys):
            core.advance(p)
            s = pslot.item(k)
            if s >= 0:
                pvis[s] = 1
                extra.append(p)
                continue
            if core.resident(k):
                core.hit(k)
                extra.append(p)
                continue
            if self.ghost.remove(k):
                self._insert_main(k, p)
                deferred.pop(k, None)
                continue
            if self._pn >= pcap:
                self._demote_one(p)
            slot = self._php
            pkeys[slot] = k
            pvis[slot] = 0
            pslot[k] = slot
            self._php = (slot + 1) % pcap
            self._pn += 1
            self._cleared[slot] = p
            if deferred.pop(k, 0):
                pvis[slot] = 1
        return extra

    def contents(self) -> set:
        probation = set(np.nonzero(self._pslot >= 0)[0].tolist())
        return probation | self.core.contents()


__all__ = ["FastQDLHD"]
