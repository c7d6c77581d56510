"""Closed-loop load harness for a :class:`CacheCluster`.

The cluster counterpart of :mod:`repro.service.loadgen`: replays a key
sequence through the router on the same closed loop
(:func:`~repro.service.loadgen.run_closed_loop`), then reports
cluster-wide outcome counts (all six, including ``replica_hit``),
latency percentiles, availability and per-shard breakdowns.

Tick pacing runs on absolute deadlines (``origin + i * tick`` via
:meth:`Clock.sleep_until`), so injected backend latencies never skew
the schedule and a kill window at virtual time *t* always lands on the
same request index.  One addition the single-node harness does not
need: **phase checkpoints**.  Outage experiments want
before/during/after accounting around a kill window; ``checkpoints``
is a list of virtual-clock times, the loop's pacing hook snapshots
the cluster counters the first time the clock crosses each one, and
:meth:`ClusterLoadReport.phases` turns consecutive snapshots into
per-phase deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, percentile
from repro.obs.timeseries import TimeSeriesRecorder
from repro.service.loadgen import run_closed_loop
from repro.service.overload import (
    AdmissionQueue,
    ArrivalSchedule,
    ConcurrencyLimiter,
    OpenLoadReport,
    ServiceCostModel,
    run_open_loop,
)
from repro.cluster.cluster import CLUSTER_OUTCOMES, CacheCluster

#: Outcomes that delivered a value to the caller.
SERVED = ("hit", "miss", "replica_hit", "stale")


@dataclass
class ClusterLoadReport:
    """Everything one cluster load run measured."""

    requests: int
    outcomes: Dict[str, int]
    front_hits: int
    replications: int
    replica_probes: int
    latency_p50: float
    latency_p90: float
    latency_p99: float
    elapsed: float                 # wall seconds (real clock)
    threads: int
    shards: int
    shard_outcomes: Dict[str, Dict[str, int]] = field(default_factory=dict)
    checkpoints: List[Tuple[float, Dict[str, int]]] = field(
        default_factory=list)
    breaker_transitions: List[Tuple[float, str, str, str]] = field(
        default_factory=list)
    interrupted: bool = False

    @property
    def throughput(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.requests / self.elapsed

    @property
    def availability(self) -> float:
        """Fraction of requests that got a value (any serving outcome)."""
        if self.requests == 0:
            return 0.0
        return sum(self.outcomes[name] for name in SERVED) / self.requests

    @property
    def effective_hit_ratio(self) -> float:
        """Cache-served fraction: hits + replica hits + stale serves."""
        if self.requests == 0:
            return 0.0
        served = (self.outcomes["hit"] + self.outcomes["replica_hit"]
                  + self.outcomes["stale"])
        return served / self.requests

    def check_accounting(self) -> None:
        """Assert hit+miss+replica_hit+stale+shed+error == requests."""
        accounted = sum(self.outcomes[name] for name in CLUSTER_OUTCOMES)
        if accounted != self.requests:
            raise AssertionError(
                f"cluster outcome accounting broken: {accounted} "
                f"accounted vs {self.requests} requests ({self.outcomes})")

    def phases(self) -> List[Dict[str, int]]:
        """Per-phase outcome deltas between consecutive checkpoints.

        With checkpoints at ``[t1, t2]`` this yields three dicts --
        before ``t1``, between ``t1`` and ``t2``, and after ``t2`` (the
        final phase is measured against the end-of-run totals).
        """
        snapshots = [snap for _, snap in self.checkpoints]
        end = dict(self.outcomes)
        end["requests"] = self.requests
        snapshots.append(end)
        deltas: List[Dict[str, int]] = []
        previous: Dict[str, int] = {}
        for snap in snapshots:
            delta = {name: snap.get(name, 0) - previous.get(name, 0)
                     for name in (*CLUSTER_OUTCOMES, "requests")}
            deltas.append(delta)
            previous = snap
        return deltas

    def render(self) -> str:
        lines = [
            f"requests      : {self.requests} over {self.threads} "
            f"thread(s), {self.shards} shard(s)"
            + (" [interrupted]" if self.interrupted else ""),
            "outcomes      : " + "  ".join(
                f"{name}={self.outcomes[name]}"
                for name in CLUSTER_OUTCOMES),
            f"hot keys      : {self.replications} replication(s), "
            f"{self.front_hits} front-cache hit(s), "
            f"{self.replica_probes} replica probe(s)",
            f"availability  : {self.availability:.2%}",
            f"eff hit ratio : {self.effective_hit_ratio:.2%}",
            f"latency       : p50={self.latency_p50 * 1e3:.3f}ms "
            f"p90={self.latency_p90 * 1e3:.3f}ms "
            f"p99={self.latency_p99 * 1e3:.3f}ms",
            f"elapsed       : {self.elapsed:.3f}s "
            f"({self.throughput:.0f} req/s)",
        ]
        if self.shard_outcomes:
            for name in sorted(self.shard_outcomes):
                snap = self.shard_outcomes[name]
                lines.append(
                    f"  shard {name:<6}: " + "  ".join(
                        f"{outcome}={snap.get(outcome, 0)}"
                        for outcome in ("hit", "miss", "stale", "shed",
                                        "error")))
        if self.breaker_transitions:
            moves = ", ".join(
                f"{shard}:{src}->{dst}@{ts:.2f}s"
                for ts, shard, src, dst in self.breaker_transitions)
            lines.append(f"breakers      : {moves}")
        return "\n".join(lines)


def _report(cluster: CacheCluster, elapsed: float, threads: int,
            checkpoints: List[Tuple[float, Dict[str, int]]],
            interrupted: bool) -> ClusterLoadReport:
    snap = cluster.metrics.snapshot()
    latencies = cluster.metrics.latencies()
    return ClusterLoadReport(
        requests=snap["requests"],
        outcomes={name: snap[name] for name in CLUSTER_OUTCOMES},
        front_hits=snap["front_hits"],
        replications=snap["replications"],
        replica_probes=snap["replica_probes"],
        latency_p50=percentile(latencies, 0.50),
        latency_p90=percentile(latencies, 0.90),
        latency_p99=percentile(latencies, 0.99),
        elapsed=elapsed,
        threads=threads,
        shards=len(cluster.shards),
        shard_outcomes=cluster.shard_snapshots(),
        checkpoints=checkpoints,
        breaker_transitions=cluster.breaker_transitions(),
        interrupted=interrupted,
    )


def run_cluster_load(
    cluster: CacheCluster,
    keys: Sequence,
    threads: int = 1,
    tick: float = 0.0,
    checkpoints: Optional[Sequence[float]] = None,
) -> ClusterLoadReport:
    """Replay *keys* through *cluster* and measure what happened.

    ``tick`` > 0 paces requests on the cluster's
    :class:`~repro.exec.clock.VirtualClock` at absolute deadlines
    (single-threaded deterministic mode only).  ``checkpoints`` are
    virtual times at which to snapshot the cluster counters for phase
    accounting; they require tick mode.
    """
    if checkpoints and tick == 0:
        raise ValueError("checkpoints require tick-paced virtual time")
    marks = sorted(float(t) for t in (checkpoints or ()))
    taken: List[Tuple[float, Dict[str, int]]] = []

    def take_due_checkpoints() -> None:
        while marks and cluster.clock.now() >= marks[0]:
            taken.append((marks.pop(0), cluster.metrics.snapshot()))

    def pace(deadline: float) -> None:
        # Snapshot *before* crossing a checkpoint boundary so a phase
        # delta contains exactly the requests issued strictly before
        # that virtual time.
        take_due_checkpoints()
        while marks and marks[0] <= deadline:
            cluster.clock.sleep_until(marks[0])
            take_due_checkpoints()

    def report(elapsed: float, interrupted: bool) -> ClusterLoadReport:
        if not interrupted:
            take_due_checkpoints()
        return _report(cluster, elapsed, threads, taken, interrupted)

    return run_closed_loop(cluster.get, cluster.clock, keys, report,
                           threads=threads, tick=tick, layer="cluster",
                           pace=pace)


def run_open_cluster_load(
    cluster: CacheCluster,
    keys: Sequence,
    schedule: ArrivalSchedule,
    queue: Optional[AdmissionQueue] = None,
    limiter: Optional[ConcurrencyLimiter] = None,
    cost: Optional[ServiceCostModel] = None,
    timeseries: Optional[TimeSeriesRecorder] = None,
    registry: Optional[MetricsRegistry] = None,
    metric_labels: Optional[dict] = None,
) -> OpenLoadReport:
    """Open-loop load against a :class:`CacheCluster`.

    The cluster counterpart of
    :func:`repro.service.loadgen.run_open_load`: the arrival schedule
    drives the router, the admission queue and limiter sit in front of
    it, and promotion cost is aggregated across every shard's policy
    (each shard's promotions serialise on its own lock in reality, but
    the single serialised timeline is a conservative upper bound that
    keeps the model identical to the single-node harness).  Outcomes
    include ``replica_hit``, so the conservation invariant here is
    ``hit+miss+replica_hit+stale+shed+dropped+error == offered``.

    Only the shard that served a request and the replicas it pushed its
    value to can have promoted, so the probe re-reads just those shards'
    ``promotion_count`` and keeps a running sum over all of them.
    """
    policies = {name: service.policy
                for name, service in cluster.shards.items()}
    readings = {name: policy.promotion_count
                for name, policy in policies.items()}
    total = sum(readings.values())
    served = None
    cluster_get = cluster.get

    def get(key):
        nonlocal served
        served = cluster_get(key)
        return served

    def probe() -> int:
        nonlocal total
        if served is not None and served.shard is not None:
            for name in (served.shard, *served.replicated_to):
                reading = policies[name].promotion_count
                total += reading - readings[name]
                readings[name] = reading
        return total

    return run_open_loop(
        get=get,
        arrivals=schedule.times(),
        keys=keys,
        clock=cluster.clock,
        queue=queue,
        limiter=limiter,
        cost=cost,
        promotions_probe=probe,
        timeseries=timeseries,
        registry=registry,
        metric_labels=metric_labels,
    )


__all__ = ["SERVED", "ClusterLoadReport", "run_cluster_load",
           "run_open_cluster_load"]
