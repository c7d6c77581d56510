"""Experiment X3 -- thread scalability under lock contention (§1-2).

The paper: LRU's per-hit locked promotion makes the list head a
contention point, while FIFO-family hits take no lock and scale.

A closed loop of T threads is X6's static cell with every request due
at time 0: a T-slot ``StaticLimiter`` runs T requests, and each
completion dispatches the next.  Requests go through a real
``CacheService``, and ``run_open_loop`` charges X6's
``ServiceCostModel``: base and miss work run in parallel, and only
promotions hold the one lock.  FIFO and SIEVE scale linearly; LRU and
ARC flatten at ``1 / (promotions per request * promotion_cost)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.tables import render_table
from repro.exec.clock import VirtualClock
from repro.experiments.common import write_result
from repro.policies.registry import make
from repro.service.backend import InMemoryBackend
from repro.service.overload import (
    AdmissionQueue,
    ServiceCostModel,
    StaticLimiter,
    run_open_loop,
)
from repro.service.service import CacheService, ServiceConfig
from repro.traces.synthetic import zipf_trace

POLICIES = ["FIFO", "FIFO-Reinsertion", "2-bit-CLOCK", "SIEVE",
            "QD-LP-FIFO", "LRU", "ARC"]
THREADS = (1, 2, 4, 8, 16, 32)
COST = ServiceCostModel()


@dataclass(frozen=True)
class ScalingPoint:
    """One policy's closed-loop run at one thread count."""

    threads: int
    throughput: float              # requests per virtual second
    lock_utilisation: float        # lock busy time / elapsed time
    hit_ratio: float
    promotions_per_request: float


def run_point(policy_name: str, capacity: int, keys: Sequence[int],
              threads: int) -> ScalingPoint:
    """Serve *keys* through *threads* closed-loop slots on a fresh service."""
    clock = VirtualClock()
    service = CacheService(make(policy_name, capacity), InMemoryBackend(),
                           ServiceConfig(), clock=clock)
    n = len(keys)
    report = run_open_loop(
        service.get, [0.0] * n, keys, clock,
        queue=AdmissionQueue(n), limiter=StaticLimiter(threads), cost=COST,
        promotions_probe=lambda: service.policy.promotion_count)
    report.check_conservation()
    return ScalingPoint(threads=threads, throughput=report.goodput,
                        lock_utilisation=report.lock_busy / report.duration,
                        hit_ratio=report.hit_ratio,
                        promotions_per_request=report.promotions / n)


@dataclass
class ScalabilityResult:
    """Throughput-vs-threads curves per policy."""

    curves: Dict[str, List[ScalingPoint]]
    thread_counts: Sequence[int] = THREADS

    def speedup(self, policy: str, threads: int) -> float:
        """Throughput at *threads* relative to the policy's own T=1."""
        points = {p.threads: p for p in self.curves[policy]}
        return points[threads].throughput / points[1].throughput

    def render(self) -> str:
        top = self.thread_counts[-1]
        headers = (["policy"]
                   + [f"T={t}" for t in self.thread_counts]
                   + [f"speedup@{top}", f"lock util@{top}", "hit ratio",
                      "promotions/req"])
        body = []
        for name, points in self.curves.items():
            row = [name]
            row += [round(p.throughput) for p in points]
            row.append(self.speedup(name, top))
            row.append(points[-1].lock_utilisation)
            row.append(points[-1].hit_ratio)
            row.append(points[-1].promotions_per_request)
            body.append(row)
        return render_table(
            headers, body,
            title="X3: closed-loop throughput (req/s) vs thread count; "
                  f"base {COST.base_cost * 1e3:.0f} ms, miss "
                  f"+{COST.miss_penalty * 1e3:.0f} ms in parallel, "
                  f"promotions {COST.promotion_cost * 1e3:.0f} ms each "
                  "on one lock",
            precision=2)


def run(
    num_objects: int = 4000,
    num_requests: int = 20_000,
    alpha: float = 1.1,
    seed: int = 5,
    thread_counts: Sequence[int] = THREADS,
) -> ScalabilityResult:
    """Run every policy's closed loop at every thread count."""
    rng = np.random.default_rng(seed)
    keys = zipf_trace(num_objects, num_requests, alpha, rng).tolist()
    capacity = num_objects // 4
    curves = {name: [run_point(name, capacity, keys, threads)
                     for threads in thread_counts]
              for name in POLICIES}
    result = ScalabilityResult(curves=curves,
                               thread_counts=tuple(thread_counts))
    write_result("scalability", result.render())
    return result


__all__ = ["COST", "POLICIES", "THREADS", "ScalabilityResult",
           "ScalingPoint", "run", "run_point"]
