"""The multi-tier cache: lookup path, demotion cascade, cost model.

:class:`CacheHierarchy` stacks :class:`~repro.hierarchy.tier.Tier`
levels, top (fastest) first, and serves ``request(key, size)``:

1. **Lookup** walks the tiers top-down; the first tier holding the key
   serves it (charging that tier's ``read_cost``).  With
   ``promote_on_hit`` a lower-tier hit is also copied into tier 0 --
   the inclusive model: the lower copy stays, so demoting the object
   later refreshes instead of rewriting.  ``promote_on_hit=False`` is
   hierarchy-level lazy promotion: serve in place, pay the lower
   tier's read cost again next time.
2. **Miss** everywhere fetches from the backend
   (``backend_read_cost``) and fills tier 0.
3. **Demotion cascade**: every eviction an insert triggers is offered
   to the next tier down -- gated by that tier's admission controller
   -- instead of being discarded; evictions from the last tier leave
   the hierarchy.  Admitted demotions are data writes (flash write
   amplification is exactly the bytes accounted here); rejected ones
   cost nothing but a ghost/counter update.  The cascade runs only
   when a tier buffered a victim: a request that evicts nothing has
   nothing to demote.

The per-request work is synchronous and deterministic, so every
counter is bit-reproducible given the same trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Optional

from repro.hierarchy.config import HierarchyConfig
from repro.hierarchy.tier import ADMITTED, Tier
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.reqtrace import ActiveSpan, RequestTracer, TraceContext

Key = Hashable

class CacheHierarchy:
    """A DRAM -> flash -> backend (or any N-level) simulated cache."""

    def __init__(self, config: HierarchyConfig, *,
                 registry: Optional[MetricsRegistry] = None,
                 metric_labels: Optional[Dict[str, str]] = None,
                 tracer: Optional["RequestTracer"] = None) -> None:
        if not isinstance(config, HierarchyConfig):
            raise TypeError(
                f"CacheHierarchy() config must be a HierarchyConfig, "
                f"got {type(config).__name__}")
        self.config = config
        self.tiers: List[Tier] = [
            Tier(tier_config, registry, metric_labels)
            for tier_config in self.config.tiers]
        # Request tracing is opt-in.  The hierarchy replay is
        # synchronous and clockless, so its spans are instantaneous
        # markers: what they add is the *shape* of a request -- which
        # tiers were probed, what was demoted where and with what
        # admission verdict.
        self.tracer = tracer
        self.requests = 0
        self.backend_fetches = 0
        self.total_cost = 0.0
        self._hits_by_tier = [0] * len(self.tiers)

    # ------------------------------------------------------------------
    def tier(self, name: str) -> Tier:
        """The tier labelled *name* (KeyError listing known names)."""
        for tier in self.tiers:
            if tier.name == name:
                return tier
        raise KeyError(f"unknown tier {name!r} "
                       f"(tiers: {', '.join(t.name for t in self.tiers)})")

    def __contains__(self, key: Key) -> bool:
        return any(key in tier for tier in self.tiers)

    # ------------------------------------------------------------------
    def request(self, key: Key, size: int,
                ctx: Optional["TraceContext"] = None) -> str:
        """Serve one request; returns the serving tier's name or ``"miss"``.

        ``size`` must be >= 1 (the policies validate); objects larger
        than every tier's budget pass straight through to the backend
        on every request.  ``ctx`` optionally joins an existing request
        trace; per-tier lookup/demotion spans then nest under it.
        """
        self.requests += 1
        span = None
        if self.tracer is not None:
            span = self.tracer.start("hierarchy.request", ctx=ctx,
                                     key=repr(key), size=size)
        tiers = self.tiers
        for index, tier in enumerate(tiers):
            hit = tier.lookup(key, size)
            if span is not None:
                probe = span.child("tier.lookup", tier=tier.name)
                probe.end(hit=hit)
            if hit:
                break
        top = tiers[0]
        if hit:
            self.total_cost += tier.config.read_cost
            self._hits_by_tier[index] += 1
            if index > 0 and self.config.promote_on_hit:
                if top.insert(key, size):
                    self.total_cost += top.config.write_cost
                    if span is not None:
                        span.note(promoted_to=top.name)
            outcome = tier.name
        else:
            # Miss everywhere: fetch from the backend, fill the top tier.
            self.backend_fetches += 1
            self.total_cost += self.config.backend_read_cost
            if top.insert(key, size):
                self.total_cost += top.config.write_cost
            outcome = "miss"
        # Every buffer is empty between requests, and only a tier asked
        # to store something can evict: the top tier (a fill or a
        # promotion copy) and the serving tier (a hit at a new size).
        if top.evicted or tier.evicted:
            self._cascade(span=span)
        if span is not None:
            span.end(outcome=outcome)
        return outcome

    def _cascade(self, span: Optional["ActiveSpan"] = None) -> None:
        """Demote buffered evictions downward, one forward pass.

        Demotions only flow toward slower tiers, so a single top-down
        pass reaches a fixed point: inserting into tier *i+1* can only
        buffer evictions at *i+1* or below, which later iterations
        drain.  Each buffer is emptied in place once its victims have
        been counted and offered below.
        """
        tiers = self.tiers
        for index, tier in enumerate(tiers):
            evicted = tier.evicted
            if not evicted:
                continue
            below = tiers[index + 1] if index + 1 < len(tiers) else None
            stats = tier.stats
            for key, size in evicted:
                stats.evictions += 1
                stats.evicted_bytes += size
                stats.demoted_out += 1
                if below is None:
                    if span is not None:
                        demote = span.child("tier.demote", tier=tier.name,
                                            key=repr(key))
                        demote.end(verdict="evicted")
                    continue
                outcome = below.demote_in(key, size)
                if span is not None:
                    demote = span.child("tier.demote", tier=below.name,
                                        key=repr(key))
                    demote.end(verdict=outcome)
                if outcome == ADMITTED:
                    self.total_cost += below.config.write_cost
            evicted.clear()

    # ------------------------------------------------------------------
    @property
    def hits_by_tier(self) -> Dict[str, int]:
        """Requests served per tier name."""
        return {tier.name: count for tier, count in
                zip(self.tiers, self._hits_by_tier)}

    @property
    def overall_hits(self) -> int:
        return sum(self._hits_by_tier)

    @property
    def overall_hit_ratio(self) -> float:
        """Fraction of requests served by *any* tier."""
        if self.requests == 0:
            return 0.0
        return self.overall_hits / self.requests

    @property
    def cost_per_request(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.total_cost / self.requests

    def check_conservation(self) -> None:
        """Assert the hierarchy-wide accounting invariants.

        * per tier: ``hits + misses == lookups`` and bytes within
          budget;
        * between tiers: demotions out of tier *i* == admitted +
          refreshed + rejected at tier *i+1*;
        * overall: every request either hit some tier or fetched from
          the backend.
        """
        for tier in self.tiers:
            tier.check_invariants()
        for upper, lower in zip(self.tiers, self.tiers[1:]):
            assert upper.stats.demoted_out == lower.stats.demoted_in, (
                f"demotions out of {upper.name} "
                f"({upper.stats.demoted_out}) != attempts at "
                f"{lower.name} ({lower.stats.demoted_in})")
        assert self.overall_hits + self.backend_fetches == self.requests, (
            f"hits {self.overall_hits} + fetches {self.backend_fetches} "
            f"!= requests {self.requests}")
        assert self.tiers[0].stats.lookups == self.requests, (
            "top tier must see every request")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(tier) for tier in self.tiers)
        return f"<CacheHierarchy [{inner}]>"


__all__ = ["CacheHierarchy"]
