"""Replay a sized trace through a :class:`CacheHierarchy`.

:func:`simulate_hierarchy` is the hierarchy's counterpart of
:func:`repro.sized.simulator.simulate_sized`: feed it a
:class:`~repro.hierarchy.config.HierarchyConfig` and a ``(keys,
sizes)`` trace and get a :class:`HierarchyResult` with per-tier stats,
the overall hit ratio, flash write volume and the total access cost.

TTL-aware demotion: when the config carries ``ttl > 0`` the key stream
is rewritten through :func:`repro.traces.ttl.apply_ttl` before replay
-- each object's id changes every ``ttl`` requests, so a request after
expiry can never hit, while the stale copy (wherever it resides, DRAM
*or* flash) lingers until evicted.  Sizes stay attached to the
original request positions, so every version of an object keeps its
deterministic size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.tables import render_table
from repro.hierarchy.config import HierarchyConfig
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.hierarchy.tier import TierStats
from repro.obs.metrics import MetricsRegistry
from repro.sized.workloads import SizedTrace
from repro.traces.ttl import apply_ttl


@dataclass(frozen=True)
class TierReport:
    """One tier's numbers, frozen for result objects and journals."""

    name: str
    kind: str
    policy: str
    capacity_bytes: int
    used_bytes: int
    lookups: int
    hits: int
    misses: int
    hit_bytes: int
    miss_bytes: int
    demoted_in_admitted: int
    demoted_in_refreshed: int
    demoted_in_rejected: int
    demoted_out: int
    writes: int
    write_bytes: int
    write_amplification: float

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class HierarchyResult:
    """Outcome of one hierarchy simulation run."""

    tiers: Tuple[TierReport, ...]
    requests: int
    overall_hits: int
    hits_by_tier: Tuple[Tuple[str, int], ...]
    backend_fetches: int
    total_cost: float
    ttl: int

    @property
    def overall_hit_ratio(self) -> float:
        """Fraction of requests served by any tier (DRAM + flash + ...)."""
        return self.overall_hits / self.requests if self.requests else 0.0

    @property
    def cost_per_request(self) -> float:
        return self.total_cost / self.requests if self.requests else 0.0

    def tier_report(self, name: str) -> TierReport:
        """The report row for tier *name*."""
        for report in self.tiers:
            if report.name == name:
                return report
        raise KeyError(f"unknown tier {name!r} (tiers: "
                       f"{', '.join(r.name for r in self.tiers)})")

    @property
    def flash_write_bytes(self) -> int:
        """Bytes written across every ``kind='flash'`` tier."""
        return sum(report.write_bytes for report in self.tiers
                   if report.kind == "flash")

    def render(self) -> str:
        body = [[report.name, report.policy, report.lookups,
                 f"{report.hit_ratio:.4f}", report.demoted_in_admitted,
                 report.demoted_in_rejected, report.write_bytes,
                 f"{report.write_amplification:.2f}"]
                for report in self.tiers]
        table = render_table(
            ["tier", "policy", "lookups", "hit ratio", "demotions in",
             "rejected", "bytes written", "write amp"],
            body,
            title=(f"hierarchy: {self.requests} requests, overall hit "
                   f"ratio {self.overall_hit_ratio:.4f}, "
                   f"cost/request {self.cost_per_request:.1f}"))
        return table


def _tier_report(tier) -> TierReport:
    stats: TierStats = tier.stats
    return TierReport(
        name=tier.name,
        kind=tier.config.kind,
        policy=tier.policy.name,
        capacity_bytes=tier.capacity_bytes,
        used_bytes=tier.used_bytes,
        lookups=stats.lookups,
        hits=stats.hits,
        misses=stats.misses,
        hit_bytes=stats.sized.hit_bytes,
        miss_bytes=stats.sized.miss_bytes,
        demoted_in_admitted=stats.demoted_in_admitted,
        demoted_in_refreshed=stats.demoted_in_refreshed,
        demoted_in_rejected=stats.demoted_in_rejected,
        demoted_out=stats.demoted_out,
        writes=stats.writes,
        write_bytes=stats.write_bytes,
        write_amplification=stats.write_amplification,
    )


def simulate_hierarchy(
    config: HierarchyConfig,
    sized: SizedTrace,
    *,
    registry: Optional[MetricsRegistry] = None,
    metric_labels: Optional[Dict[str, str]] = None,
) -> HierarchyResult:
    """Replay a ``(keys, sizes)`` trace through a tier stack."""
    hierarchy = CacheHierarchy(config, registry=registry,
                               metric_labels=metric_labels)
    keys, sizes = sized
    if len(keys) != len(sizes):
        raise ValueError("keys and sizes must have equal length")
    if config.ttl > 0:
        keys = apply_ttl(list(keys), config.ttl, jitter=config.ttl_jitter,
                         seed=config.ttl_seed).tolist()
    request = hierarchy.request
    for key, size in zip(keys, sizes):
        request(key, size)
    hierarchy.check_conservation()
    return HierarchyResult(
        tiers=tuple(_tier_report(tier) for tier in hierarchy.tiers),
        requests=hierarchy.requests,
        overall_hits=hierarchy.overall_hits,
        hits_by_tier=tuple(hierarchy.hits_by_tier.items()),
        backend_fetches=hierarchy.backend_fetches,
        total_cost=hierarchy.total_cost,
        ttl=config.ttl,
    )


__all__ = ["TierReport", "HierarchyResult", "simulate_hierarchy"]
