"""One storage tier: a sized policy plus demotion/write accounting.

A :class:`Tier` wraps a sized policy built through the unified
registry (:func:`~repro.policies.registry.make_sized`) and adds what
the hierarchy needs around it:

* an eviction buffer (``evicted``) -- the policy's
  :class:`~repro.core.base.CacheListener` evictions, each with its
  size, are captured so the hierarchy can *demote* victims into the
  next tier instead of losing them;
* an admission controller gating demotions into this tier;
* :class:`TierStats`: per-tier lookup/hit accounting (a plain
  :class:`~repro.sized.base.SizedStats`, so ``hits + misses ==
  lookups`` holds by construction) plus demotion and write counters,
  from which flash write amplification is derived;
* optional :class:`~repro.obs.metrics.MetricsRegistry` wiring with a
  ``tier=<name>`` label on every metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.base import CacheListener
from repro.hierarchy.admission import AdmissionController, make_admission
from repro.hierarchy.config import TierConfig
from repro.obs.metrics import MetricsRegistry
from repro.policies.registry import make_sized
from repro.sized.base import SizedStats

Key = Hashable

#: Demotion outcomes at the receiving tier.
ADMITTED = "admitted"      # written into the tier (a data write)
REFRESHED = "refreshed"    # already resident: no data write needed
REJECTED = "rejected"      # admission controller (or size) said no


@dataclass
class TierStats:
    """Per-tier accounting: lookups, demotions, writes.

    ``sized`` carries the request-level invariant (``hits + misses ==
    lookups``); the demotion counters carry the between-tier one
    (demotions out of tier *i* == admitted + refreshed + rejected at
    tier *i+1*); the write counters feed write amplification.
    """

    sized: SizedStats = field(default_factory=SizedStats)
    demoted_in_admitted: int = 0
    demoted_in_refreshed: int = 0
    demoted_in_rejected: int = 0
    demoted_out: int = 0
    writes: int = 0
    write_bytes: int = 0
    first_copy_bytes: int = 0
    evictions: int = 0
    evicted_bytes: int = 0

    @property
    def lookups(self) -> int:
        """Requests that probed this tier."""
        return self.sized.requests

    @property
    def hits(self) -> int:
        return self.sized.hits

    @property
    def misses(self) -> int:
        return self.sized.misses

    @property
    def hit_ratio(self) -> float:
        total = self.sized.requests
        return self.sized.hits / total if total else 0.0

    @property
    def demoted_in(self) -> int:
        """Demotion attempts arriving at this tier, all outcomes."""
        return (self.demoted_in_admitted + self.demoted_in_refreshed
                + self.demoted_in_rejected)

    @property
    def write_amplification(self) -> float:
        """Bytes written per byte of distinct data ever written.

        1.0 means every write was the first copy of its object;
        rewrites (churn re-admitted after eviction, promotion copies
        re-demoted) push it up.  0.0 when nothing was written.
        """
        if self.first_copy_bytes == 0:
            return 0.0
        return self.write_bytes / self.first_copy_bytes


class _EvictionBuffer(CacheListener):
    """Appends the wrapped policy's evictions to its tier's list."""

    def __init__(self, evicted: List[Tuple[Key, int]]) -> None:
        self.evicted = evicted

    def on_evict(self, key: Key, weight: int = 1) -> None:
        self.evicted.append((key, weight))


class Tier:
    """A named storage level inside a :class:`CacheHierarchy`."""

    def __init__(self, config: TierConfig,
                 registry: Optional[MetricsRegistry] = None,
                 extra_labels: Optional[Dict[str, str]] = None) -> None:
        self.config = config
        self.name = config.name
        self.policy = make_sized(config.policy, config.capacity_bytes,
                                 **config.policy_kwargs)
        self.admission = make_admission(config.admission,
                                        config.capacity_bytes,
                                        **config.admission_kwargs)
        self.stats = TierStats()
        #: ``(key, size)`` victims evicted since the hierarchy's last
        #: cascade, which drains the list in place.
        self.evicted: List[Tuple[Key, int]] = []
        self.policy.add_listener(_EvictionBuffer(self.evicted))
        # Only a controller whose class overrides the no-op hears
        # lookups, decided once here as handled_events decides which
        # events a listener receives.
        self._hears_lookups = (type(self.admission).record_lookup
                               is not AdmissionController.record_lookup)
        self._written_keys: Set[Key] = set()
        self._metrics = None
        if registry is not None:
            labels = dict(extra_labels or {})
            labels["tier"] = config.name
            self._metrics = {
                "lookups": registry.counter(
                    "hierarchy_lookups_total",
                    help="requests probing this tier", **labels),
                "hits": registry.counter(
                    "hierarchy_hits_total",
                    help="requests served by this tier", **labels),
                "demotions": {
                    outcome: registry.counter(
                        "hierarchy_demotions_total",
                        help="demotions arriving at this tier",
                        outcome=outcome, **labels)
                    for outcome in (ADMITTED, REFRESHED, REJECTED)},
                "write_bytes": registry.counter(
                    "hierarchy_write_bytes_total",
                    help="bytes written into this tier", **labels),
                "used_bytes": registry.gauge(
                    "hierarchy_used_bytes",
                    help="bytes currently resident", **labels),
            }

    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self.policy.used

    @property
    def capacity_bytes(self) -> int:
        return self.policy.capacity

    def __contains__(self, key: Key) -> bool:
        return key in self.policy

    def __len__(self) -> int:
        return len(self.policy)

    # ------------------------------------------------------------------
    def lookup(self, key: Key, size: int) -> bool:
        """Probe this tier; a hit refreshes the policy's recency state."""
        policy = self.policy
        sized = self.stats.sized
        hit = key in policy
        if hit:
            policy.request(key, size)
            sized.hits += 1
            sized.hit_bytes += size
        else:
            if self._hears_lookups:
                self.admission.record_lookup(key, size)
            sized.misses += 1
            sized.miss_bytes += size
        if self._metrics is not None:
            self._metrics["lookups"].inc()
            if hit:
                self._metrics["hits"].inc()
            self._metrics["used_bytes"].set(self.policy.used)
        return hit

    def insert(self, key: Key, size: int) -> bool:
        """Write *key* into this tier (backend fill or promotion copy).

        Bypasses admission control -- the hierarchy only calls this on
        the top tier (a fetched/promoted object must land somewhere).
        Returns whether a data write happened (already-resident keys
        are refreshed for free).
        """
        policy = self.policy
        if key in policy:
            policy.request(key, size)
            return False
        if not policy.admits(size):
            return False
        policy.request(key, size)
        if key not in policy:  # pragma: no cover - defensive
            return False
        stats = self.stats
        stats.writes += 1
        stats.write_bytes += size
        if key not in self._written_keys:
            self._written_keys.add(key)
            stats.first_copy_bytes += size
        if self._metrics is not None:
            self._metrics["write_bytes"].inc(size)
        return True

    def demote_in(self, key: Key, size: int) -> str:
        """A victim demoted from the tier above arrives here.

        Returns the outcome (:data:`ADMITTED` -- a data write --,
        :data:`REFRESHED` or :data:`REJECTED`).
        """
        policy, stats = self.policy, self.stats
        if key in policy:
            policy.request(key, size)
            outcome = REFRESHED
            stats.demoted_in_refreshed += 1
        elif not policy.admits(size):
            outcome = REJECTED
            stats.demoted_in_rejected += 1
        elif self.admission.admit(key, size):
            policy.request(key, size)
            stats.writes += 1
            stats.write_bytes += size
            if key not in self._written_keys:
                self._written_keys.add(key)
                stats.first_copy_bytes += size
            outcome = ADMITTED
            stats.demoted_in_admitted += 1
        else:
            outcome = REJECTED
            stats.demoted_in_rejected += 1
        if self._metrics is not None:
            if outcome == ADMITTED:
                self._metrics["write_bytes"].inc(size)
            self._metrics["demotions"][outcome].inc()
            self._metrics["used_bytes"].set(policy.used)
        return outcome

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on a broken tier-local invariant."""
        assert self.stats.sized.hits + self.stats.sized.misses == \
            self.stats.lookups, (
                f"tier {self.name}: hits+misses != lookups")
        assert self.policy.used <= self.policy.capacity, (
            f"tier {self.name}: used {self.policy.used} exceeds "
            f"budget {self.policy.capacity}")
        assert self.policy.used >= 0, (
            f"tier {self.name}: negative used bytes")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Tier {self.name!r} policy={self.policy.name!r} "
                f"bytes={self.used_bytes}/{self.capacity_bytes}>")


__all__ = ["ADMITTED", "REFRESHED", "REJECTED", "TierStats", "Tier"]
