"""Core cache abstraction.

The paper (Fig. 1) models a cache as a logically total-ordered queue with
four operations: *insertion*, *removal*, *promotion*, and *demotion*.
Insertion and removal are user-driven; promotion and demotion are internal
operations the eviction algorithm uses to maintain its ordering.

This module defines :class:`EvictionPolicy`, the interface every eviction
algorithm in this library implements, along with the bookkeeping helpers
shared by all policies:

* :class:`CacheStats` -- hit/miss accounting.
* :class:`CacheListener` -- observer interface receiving admit/evict
  events, used by the resource-consumption profiler (Fig. 3) and by
  wrapper policies such as the Quick Demotion wrapper (Fig. 4).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Iterable, List, Optional

Key = Hashable


def validate_capacity(capacity, what: str = "capacity") -> int:
    """Validate a cache capacity eagerly; returns it as an ``int``.

    Shared by every capacity-carrying constructor (object policies,
    sized policies, front caches) so capacity 0, negative values,
    fractions and booleans are rejected at construction time with one
    clear, suggestion-free message -- never deferred to the first
    insert, and never silently truncated (``capacity=2.7`` used to mean
    ``capacity=2`` in the sized layer).
    """
    if isinstance(capacity, (bool, str, bytes)):
        # int("10") would succeed, and int(True) == 1: both are caller
        # bugs that must not round-trip into a working cache.
        raise TypeError(
            f"{what} must be an integer >= 1, got {capacity!r}")
    try:
        as_int = int(capacity)
    except (TypeError, ValueError):
        raise TypeError(
            f"{what} must be an integer >= 1, "
            f"got {capacity!r}") from None
    if as_int != capacity:
        raise ValueError(
            f"{what} must be a whole number, got {capacity!r}")
    if as_int < 1:
        raise ValueError(f"{what} must be >= 1, got {capacity}")
    return as_int


def check_size(size: int) -> None:
    """Reject an object weight below 1 with ``ValueError``."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")


@dataclass
class CacheStats:
    """Hit/miss counters for a single policy instance.

    ``hits + misses == requests`` always holds; this is enforced by
    property-based tests.

    ``promotions`` counts *structural reorderings* -- moving an object
    within the policy's queue(s) on a hit or reinserting it at
    eviction time.  This is the operation that costs six pointer
    updates under a lock in a production LRU (paper §2), so
    promotions-per-request is the simulator's honest proxy for the
    paper's throughput/scalability argument: LRU pays one per hit,
    lazy-promotion policies pay (amortised) far less, FIFO pays zero.
    """

    hits: int = 0
    misses: int = 0
    promotions: int = 0

    @property
    def requests(self) -> int:
        """Total number of requests observed."""
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Fraction of requests that missed.  0.0 when no requests yet."""
        total = self.requests
        if total == 0:
            return 0.0
        return self.misses / total

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests that hit.  0.0 when no requests yet."""
        total = self.requests
        if total == 0:
            return 0.0
        return self.hits / total

    @property
    def promotions_per_request(self) -> float:
        """Mean structural reorderings per request (0.0 if idle)."""
        total = self.requests
        if total == 0:
            return 0.0
        return self.promotions / total

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.promotions = 0


class CacheListener:
    """Observer receiving cache content-change events.

    Subclass and override the methods you care about.  ``on_admit`` fires
    when an object enters the cache's *data* store (metadata-only ghost
    entries do not count); ``on_evict`` fires when it leaves.  Both carry
    the object's *weight*: its size when the policy is sized, else 1.
    Internal moves between segments of a composite cache (e.g.
    probationary -> main in the QD wrapper) do not fire events: the
    object stays cached.
    """

    def on_admit(self, key: Key, weight: int = 1) -> None:
        """Called when *key* (of *weight*) is admitted into the cache."""

    def on_evict(self, key: Key, weight: int = 1) -> None:
        """Called when *key* (of *weight*) is evicted from the cache."""

    def on_hit(self, key: Key) -> None:
        """Called when a request for *key* hits."""

    def on_promote(self, key: Key) -> None:
        """Called on a structural reordering of *key* (see CacheStats).

        ``key`` is the reordered object when the policy knows it cheaply
        (queue rotations, probation graduations) and ``None`` for bulk
        or anonymous reorderings.
        """

    def on_ghost_hit(self, key: Key) -> None:
        """Called when a miss for *key* was found in a ghost queue.

        Fired by quick-demotion policies (QDCache, S3-FIFO, 2Q) when a
        previously demoted object returns and is readmitted directly
        into the main cache.
        """


class EvictionPolicy(ABC):
    """Abstract base for all eviction algorithms.

    A policy manages a set of cached keys subject to a fixed ``capacity``
    (measured in objects; the paper assumes uniform object sizes to focus
    on access-pattern effects).  The single entry point is
    :meth:`request`, which performs a lookup and, on a miss, admits the
    key -- evicting as needed.  Sized policies (FIFO, LRU, k-bit CLOCK,
    GDSF and the sized QD wrapper) take ``request(key, size)`` and
    measure ``capacity`` and ``used`` in bytes instead.

    Subclasses must implement :meth:`request`, :meth:`__contains__` and
    :meth:`__len__`, and must never exceed ``capacity``.  Bookkeeping
    follows one rule: count straight into ``self.stats`` (``hits`` or
    ``misses`` once per request, ``promotions`` once per structural
    reordering), and make every listener call -- the ``_notify_*``
    helpers, one per hit, admit, evict, promotion and ghost hit --
    behind an ``if self._listeners:`` check, so a policy nobody
    observes pays only the counter increments.
    """

    #: Human-readable algorithm name; overridden by subclasses.
    name: str = "abstract"

    def __init__(self, capacity: int) -> None:
        # Validate eagerly with a precise message: a bad capacity used
        # to surface only deep inside the simulation loop (or worse,
        # silently truncate -- capacity=2.7 meant capacity=2).
        self.capacity = validate_capacity(capacity)
        self.stats = CacheStats()
        self._listeners: List[CacheListener] = []

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @abstractmethod
    def request(self, key: Key) -> bool:
        """Process one request for *key*.

        Returns ``True`` on a cache hit and ``False`` on a miss.  On a
        miss the key is admitted (possibly evicting another key).
        """

    @abstractmethod
    def __contains__(self, key: Key) -> bool:
        """Whether *key* currently resides in the cache (data, not ghost)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of cached objects."""

    # ------------------------------------------------------------------
    # Listener plumbing
    # ------------------------------------------------------------------
    def add_listener(self, listener: CacheListener) -> None:
        """Register *listener* for admit/evict/hit events."""
        self._listeners.append(listener)

    def remove_listener(self, listener: CacheListener) -> None:
        """Unregister a previously added *listener*."""
        self._listeners.remove(listener)

    def _notify_admit(self, key: Key, weight: int = 1) -> None:
        for listener in self._listeners:
            listener.on_admit(key, weight)

    def _notify_evict(self, key: Key, weight: int = 1) -> None:
        for listener in self._listeners:
            listener.on_evict(key, weight)

    def _notify_hit(self, key: Key) -> None:
        for listener in self._listeners:
            listener.on_hit(key)

    def _notify_promote(self, key: Optional[Key], count: int = 1) -> None:
        """Fire ``on_promote`` *count* times per listener, so a tracer's
        promote total matches ``stats.promotions`` exactly.  *key* is
        ``None`` when the call site cannot name the reordered object
        cheaply."""
        for listener in self._listeners:
            for _ in range(count):
                listener.on_promote(key)

    def _notify_ghost_hit(self, key: Key) -> None:
        for listener in self._listeners:
            listener.on_ghost_hit(key)

    def admits(self, size: int) -> bool:
        """Whether an object of weight *size* can ever be cached."""
        return size <= self.capacity

    def _bypass(self, size: int) -> bool:
        """Count a miss for an object the cache cannot hold: it caches
        nothing and evicts nothing.  A weight below 1 raises
        ``ValueError`` instead."""
        check_size(size)
        self.stats.misses += 1
        return False

    @property
    def promotion_count(self) -> int:
        """Total structural reorderings, including inner caches'.

        Composite policies (e.g. the QD wrapper) override this to
        aggregate their segments.
        """
        return self.stats.promotions

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def warm(self, keys: Iterable[Key]) -> None:
        """Feed *keys* through the cache, then reset the statistics.

        Useful to measure steady-state behaviour without cold-start
        misses.
        """
        for key in keys:
            self.request(key)
        self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} name={self.name!r} "
            f"capacity={self.capacity} len={len(self)}>"
        )


class OfflinePolicy(EvictionPolicy):
    """Base for policies that need the whole trace in advance (Belady).

    The simulator calls :meth:`prepare` with the full request sequence
    before issuing any :meth:`request` calls; requests must then be
    issued in exactly the prepared order.
    """

    @abstractmethod
    def prepare(self, keys: Iterable[Key]) -> None:
        """Precompute whatever future knowledge the policy needs."""


@dataclass
class EvictionEvent:
    """A single admit->evict lifetime, as recorded by profilers."""

    key: Key
    admit_time: int
    evict_time: int
    hits: int = 0

    @property
    def residency(self) -> int:
        """Number of requests the object spent in the cache."""
        return self.evict_time - self.admit_time


__all__ = [
    "Key",
    "validate_capacity",
    "check_size",
    "CacheStats",
    "CacheListener",
    "EvictionPolicy",
    "OfflinePolicy",
    "EvictionEvent",
]
