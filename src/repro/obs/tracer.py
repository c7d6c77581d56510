"""Cache event tracing: bounded ring buffers + derived histograms.

:class:`CacheTracer` is a :class:`~repro.core.base.CacheListener` that
records the four event streams the paper's analysis cares about --
**admit**, **evict**, **promote** (the structural reordering §2 prices
at six locked pointer updates in a production LRU) and **ghost-hit**
(a miss rescued by the quick-demotion ghost, Fig. 4) -- into bounded
ring buffers, so tracing an arbitrarily long simulation uses constant
memory while total counts stay exact.

Time is the tracer's logical request clock: it advances by one on every
hit or admission, i.e. once per request, which makes ``evict_time -
admit_time`` the paper's *space-time* residency unit (Fig. 3).  When a
:class:`~repro.obs.metrics.MetricsRegistry` is supplied, the tracer
feeds it live:

* ``cache_events_total{event=...}`` counters for all four streams,
* a ``cache_eviction_age_requests`` histogram of demotion ages, split
  by whether the tenure ever hit (``tenure="zero-hit"`` vs ``"hit"``)
  -- the quick-demotion lens of Fig. 2e/3.

Attach a tracer via ``SimOptions(listeners=(tracer,))`` or directly
with ``policy.add_listener(tracer)``.  Listeners force the reference
simulation path (the vectorized engines cannot emit per-event
callbacks), so tracing is opt-in by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.base import CacheListener, Key
from repro.obs.metrics import DEFAULT_AGE_BUCKETS, MetricsRegistry

ADMIT = "admit"
EVICT = "evict"
PROMOTE = "promote"
GHOST_HIT = "ghost-hit"

EVENT_KINDS = (ADMIT, EVICT, PROMOTE, GHOST_HIT)


@dataclass(frozen=True)
class CacheEvent:
    """One traced cache event, stamped with the logical request time."""

    time: int
    kind: str
    key: Key


class CacheTracer(CacheListener):
    """Record admit/evict/promote/ghost-hit streams with bounded memory.

    Parameters
    ----------
    ring:
        Events retained per stream (oldest dropped first).  Totals in
        :attr:`counts` are exact regardless of ring size.
    registry:
        Optional :class:`MetricsRegistry` to feed counters and the
        eviction-age histogram live.
    """

    def __init__(self, ring: int = 1024,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if ring < 1:
            raise ValueError(f"ring must be >= 1, got {ring}")
        self.ring = ring
        self.now = 0  # logical request clock
        self._rings: Dict[str, Deque[CacheEvent]] = {
            kind: deque(maxlen=ring) for kind in EVENT_KINDS}
        self.counts: Dict[str, int] = {kind: 0 for kind in EVENT_KINDS}
        #: key -> (admit_time, hits during the current tenure)
        self._open: Dict[Key, Tuple[int, int]] = {}
        self._ages_zero_hit: List[int] = []
        self._ages_hit: List[int] = []

        self._registry = registry
        if registry is not None:
            self._event_counters = {
                kind: registry.counter("cache_events_total", event=kind)
                for kind in EVENT_KINDS}
            self._age_hist = {
                "zero-hit": registry.histogram(
                    "cache_eviction_age_requests",
                    buckets=DEFAULT_AGE_BUCKETS, tenure="zero-hit"),
                "hit": registry.histogram(
                    "cache_eviction_age_requests",
                    buckets=DEFAULT_AGE_BUCKETS, tenure="hit"),
            }
        else:
            self._event_counters = None
            self._age_hist = None

    # ------------------------------------------------------------------
    # CacheListener interface
    # ------------------------------------------------------------------
    def _emit(self, kind: str, key: Key) -> None:
        self._rings[kind].append(CacheEvent(self.now, kind, key))
        self.counts[kind] += 1
        if self._event_counters is not None:
            self._event_counters[kind].inc()

    def on_hit(self, key: Key) -> None:
        self.now += 1
        entry = self._open.get(key)
        if entry is not None:
            self._open[key] = (entry[0], entry[1] + 1)

    def on_admit(self, key: Key, weight: int = 1) -> None:
        self.now += 1
        self._open[key] = (self.now, 0)
        self._emit(ADMIT, key)

    def on_evict(self, key: Key, weight: int = 1) -> None:
        admit_time, hits = self._open.pop(key, (self.now, 0))
        age = self.now - admit_time
        if hits == 0:
            self._ages_zero_hit.append(age)
        else:
            self._ages_hit.append(age)
        if self._age_hist is not None:
            self._age_hist["zero-hit" if hits == 0 else "hit"].observe(age)
        self._emit(EVICT, key)

    def on_promote(self, key: Key) -> None:
        self._emit(PROMOTE, key)

    def on_ghost_hit(self, key: Key) -> None:
        self._emit(GHOST_HIT, key)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def events(self, kind: str) -> List[CacheEvent]:
        """The retained (ring-bounded) events of one stream, oldest first."""
        if kind not in self._rings:
            raise KeyError(
                f"unknown event kind {kind!r}; known: {EVENT_KINDS}")
        return list(self._rings[kind])

    def eviction_ages(self, zero_hit_only: bool = False) -> List[int]:
        """Residency ages of completed tenures (requests).

        ``zero_hit_only=True`` restricts to tenures that never hit --
        the unpopular objects quick demotion targets (Fig. 2e).
        """
        if zero_hit_only:
            return list(self._ages_zero_hit)
        return self._ages_zero_hit + self._ages_hit

    def mean_eviction_age(self, zero_hit_only: bool = False) -> float:
        """Mean demotion age; 0.0 when no tenure has completed yet.

        Zero (not NaN): :meth:`summary` feeds snapshot rows that must
        stay strict-JSON serialisable and diffable -- ``NaN != NaN``
        would make every fresh-tracer snapshot a spurious regression.
        """
        ages = self.eviction_ages(zero_hit_only)
        if not ages:
            return 0.0
        return sum(ages) / len(ages)

    def summary(self) -> Dict[str, float]:
        """Scalar digest: per-stream totals plus mean demotion ages."""
        out: Dict[str, float] = {f"{kind}s": float(count)
                                 for kind, count in self.counts.items()}
        out["requests"] = float(self.now)
        out["mean_eviction_age"] = self.mean_eviction_age()
        out["mean_zero_hit_eviction_age"] = self.mean_eviction_age(
            zero_hit_only=True)
        return out


__all__ = [
    "ADMIT",
    "EVICT",
    "EVENT_KINDS",
    "GHOST_HIT",
    "PROMOTE",
    "CacheEvent",
    "CacheTracer",
]
