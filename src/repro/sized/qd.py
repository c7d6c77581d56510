"""Size-aware Quick Demotion (paper §5 future work).

The unsized QD wrapper partitions *slots*; its size-aware counterpart
partitions *bytes*: a probationary FIFO with 10 % of the byte budget,
a byte-budgeted ghost remembering recently demoted keys (and their
sizes), and any sized policy (one taking ``request(key, size)``) as
the main cache.  Semantics mirror
Fig. 4 exactly, with two size-specific rules:

* an object too large for the probationary queue is admitted straight
  into the main cache (it could never prove itself in probation);
* the ghost is bounded by the *bytes it represents*, the size-aware
  reading of "as many entries as the main cache".
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.core.base import Key, check_size
from repro.core.clock import KBitClock
from repro.core.qd import MainFactory, QDWrapper
from repro.utils.linkedlist import KeyedList


class SizedGhost:
    """Metadata-only FIFO bounded by the bytes its entries represent."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(
                f"capacity_bytes must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self._entries: "OrderedDict[Key, int]" = OrderedDict()

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, key: Key, size: int) -> None:
        """Remember *key*; oldest entries fall off the byte budget."""
        if self.capacity_bytes == 0:
            return
        if key in self._entries:
            self.used_bytes -= self._entries.pop(key)
        self._entries[key] = size
        self.used_bytes += size
        while self.used_bytes > self.capacity_bytes and len(self._entries) > 1:
            _, old_size = self._entries.popitem(last=False)
            self.used_bytes -= old_size

    def remove(self, key: Key) -> bool:
        """Forget *key*; returns whether it was present."""
        size = self._entries.pop(key, None)
        if size is None:
            return False
        self.used_bytes -= size
        return True


class SizedQDCache(QDWrapper):
    """Byte-budgeted probationary FIFO + ghost around a sized policy."""

    def __init__(
        self,
        capacity: int,
        main_factory: MainFactory,
        probation_fraction: float = 0.1,
        ghost_factor: float = 1.0,
    ) -> None:
        super().__init__(capacity)
        if capacity < 2:
            raise ValueError("SizedQDCache needs capacity >= 2")
        if not 0.0 < probation_fraction < 1.0:
            raise ValueError(
                f"probation_fraction must be in (0, 1), got "
                f"{probation_fraction}")
        self.probation_bytes = max(1, round(capacity * probation_fraction))
        self.main_bytes = capacity - self.probation_bytes
        if self.main_bytes < 1:
            self.main_bytes = 1
            self.probation_bytes = capacity - 1
        self.main = main_factory(self.main_bytes)
        self.ghost = SizedGhost(round(self.main_bytes * ghost_factor))
        self._probation: KeyedList[Key] = KeyedList()  # node.extra = size
        self._probation_used = 0
        self.used = 0
        self.name = f"Sized-QD-{self.main.name}"

    # ------------------------------------------------------------------
    def request(self, key: Key, size: int) -> bool:
        check_size(size)
        node = self._probation.get(key)
        if node is not None:
            node.visited = True
            if node.extra != size:
                self._probation_used += size - node.extra
                node.extra = size
                self._drain_probation(0, skip=key)
            self._sync_used()
            self.stats.hits += 1
            return True
        if key in self.main:
            self.main.request(key, size)
            self._sync_used()
            self.stats.hits += 1
            return True

        self.stats.misses += 1
        if not self.admits(size):
            return False
        if self.ghost.remove(key) or size > self.probation_bytes:
            # Proven once already -- or too large to ever prove itself
            # in probation: admit straight into the main cache.
            self.main.request(key, size)
            if self._on_admit and key in self.main:
                self._notify_admit(key, size)
        else:
            self._drain_probation(size)
            node = self._probation.push_head(key)
            node.extra = size
            self._probation_used += size
            if self._on_admit:
                self._notify_admit(key, size)
        self._sync_used()
        return False

    def _drain_probation(self, incoming: int,
                         skip: Optional[Key] = None) -> None:
        """Demote from the probation tail until *incoming* bytes fit."""
        while self._probation_used + incoming > self.probation_bytes:
            node = self._probation.pop_tail()
            if node.key == skip and len(self._probation) >= 1:
                self._probation.push_head_node(node)
                continue
            # Either a normal tail demotion, or the resized object
            # itself no longer fits the probationary budget -- in which
            # case it graduates to the main cache (it was just hit).
            self._probation_used -= node.extra
            if node.visited or node.key == skip:
                # Graduation: one promotion, as in QDCache -- unless the
                # main cache refuses the object, which evicts it.
                self.main.request(node.key, node.extra)
                if node.key in self.main:
                    self.stats.promotions += 1
                    if self._on_promote:
                        self._notify_promote(node.key)
                elif self._on_evict:
                    self._notify_evict(node.key, node.extra)
            else:
                self.ghost.add(node.key, node.extra)
                if self._on_evict:
                    self._notify_evict(node.key, node.extra)

    def _sync_used(self) -> None:
        self.used = self._probation_used + self.main.used

    def admits(self, size: int) -> bool:
        """An object must fit one of the two segments to be cacheable."""
        return size <= max(self.main_bytes, self.probation_bytes)


class SizedQDLPFIFO(SizedQDCache):
    """Size-aware QD-LP-FIFO: byte-budgeted probation + 2-bit CLOCK."""

    def __init__(self, capacity: int,
                 probation_fraction: float = 0.1,
                 ghost_factor: float = 1.0,
                 clock_bits: int = 2) -> None:
        super().__init__(
            capacity,
            main_factory=lambda b: KBitClock(b, bits=clock_bits),
            probation_fraction=probation_fraction,
            ghost_factor=ghost_factor,
        )
        self.main.name = f"Sized-{self.main.name}"
        self.name = "Sized-QD-LP-FIFO"


__all__ = ["SizedGhost", "SizedQDCache", "SizedQDLPFIFO"]
