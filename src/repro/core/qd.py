"""Quick Demotion wrapper (paper §4, Fig. 4).

Cache workloads are Zipf-distributed: most objects are unpopular, and
letting every new object traverse the whole cache before eviction wastes
space that popular objects could use.  *Quick Demotion* evicts most new
objects quickly by inserting misses into a small **probationary FIFO**
(10 % of the cache space by default).  Objects not requested again
before reaching the probationary queue's tail are evicted early and
remembered in a metadata-only **ghost FIFO** holding as many entries as
the main cache; objects that were requested are moved into the **main
cache**, which runs any eviction algorithm (ARC, LIRS, LHD, ... or a
2-bit CLOCK for :class:`~repro.core.qdlpfifo.QDLPFIFO`).  A miss whose
key is found in the ghost skips probation and enters the main cache
directly -- it already proved itself once.

The wrapper is itself an :class:`~repro.core.base.EvictionPolicy`, so QD
caches compose transparently with the simulator, profiler and analysis
pipeline.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from repro.core.base import CacheListener, EvictionPolicy, Key
from repro.core.ghost import GhostQueue

#: Factory building the main-cache policy from its capacity.
MainFactory = Callable[[int], EvictionPolicy]

#: Serialises attaching and detaching the eviction forwarder when
#: threads register listeners concurrently; registration is rare, so
#: one lock serves every wrapper and keeps instances picklable.  It is
#: re-entrant because a wrapper whose main cache is itself a QD wrapper
#: registers its forwarder there while holding it.
_FORWARDER_LOCK = threading.RLock()


class _EvictForwarder(CacheListener):
    """Re-emits the inner main cache's evictions as wrapper evictions.

    Admit events from the inner cache are deliberately *not* forwarded:
    the wrapper emits its own admits, and a probation -> main move must
    not look like a fresh admission (the object never left the cache).
    The wrapper attaches it to the main cache only while the wrapper
    itself has listeners, so an unobserved main cache stays
    listener-free.
    """

    def __init__(self, owner: "QDCache") -> None:
        self._owner = owner

    def on_evict(self, key: Key, weight: int = 1) -> None:
        self._owner._notify_evict(key, weight)


class QDCache(EvictionPolicy):
    """Add a probationary FIFO + ghost FIFO in front of any policy.

    Parameters
    ----------
    capacity:
        Total number of objects the composite cache may hold.
    main_factory:
        Builds the main-cache policy given its capacity (90 % of the
        total by default).
    probation_fraction:
        Fraction of ``capacity`` given to the probationary FIFO.  The
        paper uses 0.1; the ablation benchmark sweeps this.
    ghost_factor:
        Ghost entries as a multiple of the main cache's capacity.  The
        paper uses 1.0 ("as many entries as the main cache").
    """

    def __init__(
        self,
        capacity: int,
        main_factory: MainFactory,
        probation_fraction: float = 0.1,
        ghost_factor: float = 1.0,
    ) -> None:
        super().__init__(capacity)
        if capacity < 2:
            raise ValueError("QDCache needs capacity >= 2 (one probation slot "
                             "plus one main slot)")
        if not 0.0 < probation_fraction < 1.0:
            raise ValueError(
                f"probation_fraction must be in (0, 1), got {probation_fraction}")
        if ghost_factor < 0.0:
            raise ValueError(f"ghost_factor must be >= 0, got {ghost_factor}")

        self.probation_capacity = max(1, round(capacity * probation_fraction))
        self.main_capacity = capacity - self.probation_capacity
        if self.main_capacity < 1:
            # Tiny caches: always keep at least one main slot.
            self.main_capacity = 1
            self.probation_capacity = capacity - 1

        self.main = main_factory(self.main_capacity)
        self._forwarder = _EvictForwarder(self)
        self.ghost = GhostQueue(round(self.main_capacity * ghost_factor))
        #: key -> visited bit, oldest (next to leave) first
        self._probation: "OrderedDict[Key, bool]" = OrderedDict()
        self.name = f"QD-{self.main.name}"

    def add_listener(self, listener: CacheListener) -> None:
        with _FORWARDER_LOCK:
            if not self._listeners:
                self.main.add_listener(self._forwarder)
            super().add_listener(listener)

    def remove_listener(self, listener: CacheListener) -> None:
        with _FORWARDER_LOCK:
            super().remove_listener(listener)
            if not self._listeners:
                self.main.remove_listener(self._forwarder)

    # ------------------------------------------------------------------
    # EvictionPolicy interface
    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        probation = self._probation
        if key in probation:
            # Lazy promotion inside probation: a hit only marks the
            # object; whether it graduates to the main cache is decided
            # when it reaches the probationary tail.
            if not probation[key]:
                probation[key] = True
            self.stats.hits += 1
            if self._listeners:
                self._notify_hit(key)
            return True
        main = self.main
        if key in main:
            main.request(key)
            self.stats.hits += 1
            if self._listeners:
                self._notify_hit(key)
            return True

        self.stats.misses += 1
        if self.ghost.remove(key):
            # Seen (and demoted) before: admit straight into the main
            # cache -- the quick-demotion filter was wrong about it once.
            if self._listeners:
                self._notify_ghost_hit(key)
            main.request(key)
            if self._listeners:
                self._notify_admit(key)
            return False

        if len(probation) >= self.probation_capacity:
            self._demote_one()
        probation[key] = False
        if self._listeners:
            self._notify_admit(key)
        return False

    def _demote_one(self) -> None:
        """Evict one object from the probationary FIFO's tail.

        Accessed-since-insertion objects graduate to the main cache (no
        admit event: they never left the composite cache); untouched
        objects are evicted for good and remembered in the ghost.
        """
        key, visited = self._probation.popitem(last=False)
        if visited:
            self.main.request(key)
            self.stats.promotions += 1
            if self._listeners:
                self._notify_promote(key)
        else:
            self.ghost.add(key)
            if self._listeners:
                self._notify_evict(key)

    def __contains__(self, key: Key) -> bool:
        return key in self._probation or key in self.main

    def __len__(self) -> int:
        return len(self._probation) + len(self.main)

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and examples)
    # ------------------------------------------------------------------
    @property
    def promotion_count(self) -> int:
        """Wrapper reorderings plus the main cache's own."""
        return self.stats.promotions + self.main.promotion_count

    def in_probation(self, key: Key) -> bool:
        """Whether *key* currently sits in the probationary FIFO."""
        return key in self._probation

    def in_main(self, key: Key) -> bool:
        """Whether *key* currently sits in the main cache."""
        return key in self.main


def wrap_with_qd(
    main_factory: MainFactory,
    probation_fraction: float = 0.1,
    ghost_factor: float = 1.0,
) -> MainFactory:
    """Lift a policy factory into its QD-enhanced counterpart.

    >>> from repro.policies.arc import ARC
    >>> qd_arc = wrap_with_qd(ARC)  # doctest: +SKIP
    >>> cache = qd_arc(1000)        # doctest: +SKIP
    """

    def factory(capacity: int) -> QDCache:
        return QDCache(
            capacity,
            main_factory,
            probation_fraction=probation_fraction,
            ghost_factor=ghost_factor,
        )

    return factory


__all__ = ["QDCache", "wrap_with_qd", "MainFactory"]
