"""LIRS: Low Inter-reference Recency Set replacement (Jiang & Zhang,
SIGMETRICS 2002).

LIRS ranks blocks by *IRR* (inter-reference recency -- the number of
distinct blocks touched between consecutive accesses) rather than plain
recency.  Blocks with low IRR are **LIR** ("hot", ~99 % of the cache);
the rest are **HIR** and live in a small queue **Q** (~1 %) from which
eviction happens -- which is itself a form of quick demotion, though the
paper shows an explicit probationary FIFO in front (QD-LIRS) still
reduces LIRS's miss ratio by up to 49.8 %.

Structures:

* Stack **S**: recency-ordered metadata holding LIR blocks, resident
  HIR blocks, and a bounded number of *non-resident* HIR blocks.
* Queue **Q**: the resident HIR blocks, evicted FIFO.

Invariant maintained throughout ("stack pruning"): the bottom of S is
always a LIR block.  The paper's authors note that public LIRS
implementations are frequently buggy; the property-based tests in
``tests/policies/test_lirs.py`` check the invariants directly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from repro.core.base import EvictionPolicy, Key
from repro.utils.linkedlist import KeyedList

_LIR = 0        # hot, resident, always in S
_HIR_RES = 1    # cold, resident, in Q (and possibly in S)
_HIR_NONRES = 2 # cold, metadata only, in S


class LIRS(EvictionPolicy):
    """The LIRS algorithm.

    ``hir_fraction`` sizes the resident-HIR queue Q (1 % in the
    original paper).  ``nonresident_factor`` bounds the non-resident
    metadata kept in S, in multiples of the cache capacity.
    """

    name = "LIRS"
    MIN_CAPACITY = 2

    def __init__(
        self,
        capacity: int,
        hir_fraction: float = 0.01,
        nonresident_factor: float = 2.0,
    ) -> None:
        super().__init__(capacity)
        if capacity < self.MIN_CAPACITY:
            raise ValueError("LIRS needs capacity >= 2 (one LIR + one HIR slot)")
        self.hir_capacity = max(1, round(capacity * hir_fraction))
        self.lir_capacity = capacity - self.hir_capacity
        if self.lir_capacity < 1:
            self.lir_capacity = 1
            self.hir_capacity = capacity - 1
        self._nonres_limit = max(1, round(capacity * nonresident_factor))

        self._stack: KeyedList[Key] = KeyedList()  # head = most recent
        self._queue: "OrderedDict[Key, None]" = OrderedDict()  # FIFO of HIR_RES
        self._state: Dict[Key, int] = {}
        #: non-resident HIR keys ordered by when they became non-resident
        self._nonres: "OrderedDict[Key, None]" = OrderedDict()
        self._lir_count = 0

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        state = self._state.get(key)
        if state == _LIR:
            self._stack.move_to_head(key)
            self.stats.promotions += 1
            self._prune()
            self.stats.hits += 1
            if self._listeners:
                self._notify_promote(key)
                self._notify_hit(key)
            return True
        if state == _HIR_RES:
            self._hit_resident_hir(key)
            self.stats.promotions += 1
            self.stats.hits += 1
            if self._listeners:
                self._notify_promote(key)
                self._notify_hit(key)
            return True

        self.stats.misses += 1
        self._miss(key, state)
        if self._listeners:
            self._notify_admit(key)
        return False

    # ------------------------------------------------------------------
    def _hit_resident_hir(self, key: Key) -> None:
        if key in self._stack:
            # Low IRR proven: upgrade to LIR.
            self._stack.move_to_head(key)
            self._state[key] = _LIR
            self._lir_count += 1
            del self._queue[key]
            if self._lir_count > self.lir_capacity:
                self._demote_bottom()
        else:
            # Still high IRR: refresh in S and Q, stay HIR.
            self._stack.push_head(key)
            self._queue.move_to_end(key)

    def _miss(self, key: Key, state) -> None:
        if self._lir_count < self.lir_capacity:
            # Cold start: fill the LIR set first.
            if key in self._stack:
                self._stack.move_to_head(key)
                self._nonres.pop(key, None)
            else:
                self._stack.push_head(key)
            self._state[key] = _LIR
            self._lir_count += 1
            return

        if state == _HIR_NONRES:
            # Detach from the non-resident bookkeeping *before* making
            # room: the eviction below may push another key into the
            # non-resident set and reclaim the oldest entry -- which
            # must never be the key being promoted right now.
            self._nonres.pop(key, None)

        if self._resident_count() >= self.capacity:
            self._evict_from_queue()

        if state == _HIR_NONRES:
            # Its reuse distance beat some LIR block: promote.
            self._stack.move_to_head(key)
            self._state[key] = _LIR
            self._lir_count += 1
            self._demote_bottom()
        else:
            self._state[key] = _HIR_RES
            self._stack.push_head(key)
            self._queue[key] = None

    def _evict_from_queue(self) -> None:
        victim, _ = self._queue.popitem(last=False)
        if victim in self._stack:
            self._state[victim] = _HIR_NONRES
            self._nonres[victim] = None
            if len(self._nonres) > self._nonres_limit:
                old, _ = self._nonres.popitem(last=False)
                self._stack.remove(old)
                del self._state[old]
        else:
            del self._state[victim]
        if self._listeners:
            self._notify_evict(victim)

    def _demote_bottom(self) -> None:
        """Turn the stack's bottom LIR block into a resident HIR block."""
        bottom = self._stack.tail
        assert bottom is not None and self._state[bottom.key] == _LIR, (
            "LIRS invariant violated: stack bottom must be LIR")
        self._stack.remove_node(bottom)
        self._state[bottom.key] = _HIR_RES
        self._queue[bottom.key] = None
        self._lir_count -= 1
        self._prune()

    def _prune(self) -> None:
        """Remove HIR entries from the stack bottom until a LIR block."""
        while True:
            tail = self._stack.tail
            if tail is None:
                return
            state = self._state[tail.key]
            if state == _LIR:
                return
            self._stack.remove_node(tail)
            if state == _HIR_NONRES:
                # Pruned non-resident metadata disappears entirely.
                del self._state[tail.key]
                self._nonres.pop(tail.key, None)

    def _resident_count(self) -> int:
        return self._lir_count + len(self._queue)

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return self._state.get(key) in (_LIR, _HIR_RES)

    def __len__(self) -> int:
        return self._resident_count()

    # Introspection for tests -------------------------------------------------
    def is_lir(self, key: Key) -> bool:
        """Whether *key* currently has LIR status."""
        return self._state.get(key) == _LIR

    @property
    def lir_count(self) -> int:
        """Number of LIR blocks."""
        return self._lir_count

    @property
    def stack_size(self) -> int:
        """Total entries (incl. non-resident metadata) in stack S."""
        return len(self._stack)


__all__ = ["LIRS"]
