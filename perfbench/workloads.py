"""The benchmark's four workloads, measured end to end with tracing off.

Every workload has a ``setup(seed)`` (its inputs, generated from the
seed, plus whatever it builds before serving) and a ``run(state,
seconds)`` that repeats *passes* over a fixed list of short *units* --
one sweep cell, one chunk of gets, one stretch of an open-loop run, one
hierarchy replay -- until the next pass would overrun ``seconds``.
Each unit is timed between two :func:`calibrate.kernel` runs and scaled
to the reference speed, and keeps its fastest pass: a slow moment of a
shared machine inflates a unit, never deflates it (the argument of
``timeit``).  Outputs must be identical in every pass; a pass that
differs fails the run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import build_cluster
from repro.cluster.loadgen import run_open_cluster_load
from repro.exec.clock import SystemClock, VirtualClock
from repro.hierarchy import dram_flash_config, simulate_hierarchy
from repro.obs.metrics import MetricsRegistry
from repro.policies.registry import make
from repro.service.overload import (
    AdmissionQueue,
    AIMDLimiter,
    AimdConfig,
    ServiceCostModel,
    StepArrivals,
)
from repro.sim.options import SimOptions
from repro.sim.runner import (
    LARGE_FRACTION,
    SMALL_FRACTION,
    run_one,
    run_sweep,
)
from repro.sized.workloads import attach_sizes, unique_bytes
from repro.traces.corpus import build_corpus
from repro.traces.synthetic import zipf_trace
from repro.traces.trace import Trace

from calibrate import calibrated, fastest, kernel, scale

pc = time.perf_counter

# ----------------------------------------------------------------------
# Workload parameters
# ----------------------------------------------------------------------

#: The inputs are pinned here, not imported from the experiments, so a
#: change to an experiment's lists cannot move the benchmark silently.

#: Fig. 5's policies: the FIFO/LRU baselines, the five state-of-the-art
#: algorithms, their QD variants and QD-LP-FIFO.
FIG5_POLICIES = ("FIFO", "LRU", "ARC", "LIRS", "CACHEUS", "LeCaR", "LHD",
                 "QD-ARC", "QD-LIRS", "QD-CACHEUS", "QD-LeCaR", "QD-LHD",
                 "QD-LP-FIFO")

#: sim-fig5: five of the ten corpus families (three block, two web) at
#: half length.  Scale 0.5 is the shortest at which the 10 % size stays
#: well above Fig. 5's 50-object floor (so the two paper sizes differ);
#: five families keep one pass near 6 s so a run holds several passes.
FIG5_FAMILIES = ("msr", "cloudphysics", "alibaba", "cdn", "twitter")
FIG5_SCALE = 0.5
FIG5_MIN_CAPACITY = 50
FIG5_SIZES = (SMALL_FRACTION, LARGE_FRACTION)
#: the mean miss ratio must clear the compulsory-only floor by this much
FIG5_FLOOR_GAP = 0.1

#: serve-hot: Zipf 1.2 over 100 k keys into 4 LRU shards of 1 k.  The
#: warm-up touches ~8 k distinct keys, so the 4 k slots are full before
#: the first timed get and misses evict from then on.
HOT_OBJECTS = 100_000
HOT_ALPHA = 1.2
HOT_SHARDS = 4
HOT_SHARD_CAPACITY = 1_000
HOT_WARM_GETS = 60_000
HOT_CHUNK = 2_500
HOT_CHUNKS = 40

#: serve-churn: Zipf 0.6 over 1 M keys into 4 QD-LP-FIFO shards of
#: 2.5 k, behind the X6 adaptive front end (AIMD limiter, 128-deep
#: drop-oldest queue, 0.5 s deadline) under a 2 k -> 6 k req/s step.
CHURN_OBJECTS = 1_000_000
CHURN_ALPHA = 0.6
CHURN_SHARDS = 4
CHURN_SHARD_CAPACITY = 2_500
CHURN_WARM_GETS = 12_000
CHURN_RATE = 2_000.0
CHURN_PEAK_RATE = 6_000.0
CHURN_DURATION = 8.0
CHURN_QUEUE = 128
CHURN_DEADLINE = 0.5
CHURN_CONCURRENCY = 16
CHURN_TARGET_DELAY = 0.05
#: gets per timed stretch of the open-loop run
CHURN_SEGMENT = 1_000

#: tier-web: the X7 grid on the web families at half length.
WEB_FAMILIES = ("cdn", "tencent_photo", "wiki", "twitter")
DRAM_POLICIES = ("Sized-FIFO", "Sized-LRU", "Sized-2-bit-CLOCK",
                 "Sized-QD-LP-FIFO")
ADMISSIONS = ("admit-all", "ghost")
TIER_SCALE = 0.5
TIER_DRAM_FRACTION = 0.10
TIER_FLASH_FRACTION = 0.20

#: Hit-ratio bands each workload must stay inside (the eviction guard).
HIT_RATIO_BANDS = {
    "sim-fig5": (0.15, 0.7),     # mean over cells
    "serve-hot": (0.8, 0.95),
    "serve-churn": (0.01, 0.2),  # of served gets
    "tier-web": (0.3, 0.85),     # mean overall hit ratio over cells
}

SETUP_REPEATS = 9
MIN_PASSES = 2


class CheckFailed(Exception):
    """An output check failed: the run must not report a number."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Measured:
    """Everything one end-to-end run of a workload produced."""

    metrics: Dict[str, float]
    #: guard and diagnostic figures, written as obs rows too
    extras: Dict[str, float]
    attempted: int
    failed: int
    #: canonical JSON of the deterministic outputs (digested by run.py)
    outputs: Any
    #: (key, payload) pairs journalled as ``result`` lines
    results: List[Tuple[Tuple, dict]] = field(default_factory=list)
    checks: List[str] = field(default_factory=list)


def digest(outputs: Any) -> str:
    """Short stable hash of a workload's deterministic outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def tail_percentile(samples: int) -> int:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    for pct in (99, 95, 90):
        if samples * (100 - pct) / 100 >= 10:
            return pct
    return 90


def quantile(values: Sequence[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timed_setups(setup: Callable[[int], Any], seed: int) -> Tuple[Any, float]:
    """Run *setup* :data:`SETUP_REPEATS` times; the last state and the
    median time at the reference speed."""
    runs = calibrated([lambda: setup(seed)] * SETUP_REPEATS)
    return runs[-1][0], statistics.median(took * factor
                                          for _, took, factor in runs)


def repeat_passes(run_pass: Callable[[], Any], seconds: float) -> List[Any]:
    """Run passes until the next one would overrun *seconds*.

    Each pass starts from a collected heap, so the collector's own
    passes fall at the same points of every pass."""
    started = pc()
    passes = []
    while True:
        begun = pc()
        gc.collect()
        passes.append(run_pass())
        took = pc() - begun
        if len(passes) >= MIN_PASSES and pc() - started + took > seconds:
            return passes


def reference_seconds(units) -> float:
    return sum(took * factor for _, took, factor in units)


def latency_tail(passes, pct: int) -> float:
    """Each unit's lowest *pct*-th percentile get latency over the
    passes, at the reference speed; the median of those over units.

    A single slow get anywhere lands in some unit's tail; taking each
    unit's best pass and then the middle unit keeps one interrupt or
    collection from moving the figure."""
    return statistics.median(
        min(quantile(latencies, pct) * factor
            for latencies, _, factor in column)
        for column in zip(*passes)
        if len(column[0][0]) >= 100)  # an open loop's short last stretch


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_band(name: str, hit_ratio: float) -> None:
    low, high = HIT_RATIO_BANDS[name]
    check(low <= hit_ratio <= high,
          f"{name}: hit ratio {hit_ratio:.4f} left its band "
          f"[{low}, {high}]")


def shard_evictions(cluster) -> int:
    """Evictions so far: every policy miss admits one object."""
    return sum(service.policy.stats.misses - len(service.policy)
               for service in cluster.shards.values())


def replay(get, keys: Sequence[int]) -> float:
    started = pc()
    for key in keys:
        get(key)
    return pc() - started


# ----------------------------------------------------------------------
# sim-fig5
# ----------------------------------------------------------------------

def fig5_setup(seed: int) -> List[Trace]:
    return build_corpus(scale=FIG5_SCALE, traces_per_family=1, seed=seed,
                        families=list(FIG5_FAMILIES))


def fresh(trace: Trace) -> Trace:
    """A copy with no cached interning, so every pass does the same work."""
    return Trace(trace.name, trace.keys, trace.family, trace.group,
                 dict(trace.params))


FIG5_OPTIONS = SimOptions(min_capacity=FIG5_MIN_CAPACITY)


def fig5_pass(traces: List[Trace], options: SimOptions = FIG5_OPTIONS):
    """Every cell once, each its own ``run_sweep`` in the matrix's order:
    ``(sweep, seconds, scale)`` per cell.  Pass :func:`fresh` copies."""

    def cell(trace, size, policy):
        return lambda: run_sweep([policy], [trace], size_fractions=[size],
                                 options=options, workers=1)

    return calibrated([cell(trace, size, policy)
                       for trace in traces
                       for size in FIG5_SIZES
                       for policy in FIG5_POLICIES])


def record_key(record) -> Tuple[str, str, float]:
    return (record.trace, record.policy, record.size_fraction)


def fig5_records(units) -> list:
    return [r for sweep, _, _ in units for r in sweep.records]


def fig5_outputs(units) -> list:
    return [[r.trace, r.policy, r.size_fraction, r.capacity, r.requests,
             r.misses] for r in fig5_records(units)]


def fig5_run(traces: List[Trace], seconds: float) -> Measured:
    passes = repeat_passes(lambda: fig5_pass(list(map(fresh, traces))),
                           seconds)
    first = passes[0]
    records = fig5_records(first)
    outputs = fig5_outputs(first)
    for units in passes[1:]:
        check(fig5_outputs(units) == outputs,
              "sim-fig5: a later pass changed cell results")
    cells = len(FIG5_POLICIES) * len(FIG5_SIZES) * len(traces)
    failed = sum(len(sweep.failures) for sweep, _, _ in first)
    check(failed == 0 and len(records) == cells,
          f"sim-fig5: {failed} failed cells, {len(records)}/{cells} done")

    best = fastest(passes)
    per_request_us = [1e6 * took * factor / r.requests
                      for (_, took, factor), r in zip(best, records)]
    tail = tail_percentile(len(per_request_us))
    requests = sum(r.requests for r in records)

    # Eviction guard: every cell must admit more objects than it holds.
    for r in records:
        check(r.misses > r.capacity,
              f"sim-fig5: cell {record_key(r)} never evicted "
              f"({r.misses} misses, capacity {r.capacity})")
    unique = {t.name: t.num_unique for t in traces}
    floor = statistics.mean(unique[r.trace] / r.requests for r in records)
    miss_ratio = statistics.mean(r.miss_ratio for r in records)
    check(miss_ratio >= floor + FIG5_FLOOR_GAP,
          f"sim-fig5: mean miss ratio {miss_ratio:.4f} is near the "
          f"compulsory floor {floor:.4f}")
    in_band("sim-fig5", 1.0 - miss_ratio)

    # The fast engines must agree with the reference simulator.
    spot = traces[0]
    by_key = {record_key(r): r for r in records}
    for policy in ("FIFO", "QD-LP-FIFO"):
        for size in FIG5_SIZES:
            ref = run_one(policy, fresh(spot), size, FIG5_MIN_CAPACITY)
            got = by_key[(spot.name, policy, size)]
            check(ref.misses == got.misses,
                  f"sim-fig5: {policy} at {size} on {spot.name}: fast "
                  f"engine {got.misses} misses, reference {ref.misses}")

    evictions = sum(r.misses - r.capacity for r in records)
    return Measured(
        metrics={
            "throughput_ops_s": requests / reference_seconds(best),
            "op_p50_us": quantile(per_request_us, 50),
            "op_tail_us": quantile(per_request_us, tail),
            "miss_ratio": miss_ratio,
            "served_ratio": len(records) / cells,
        },
        extras={
            "hit_ratio": 1.0 - miss_ratio,
            "compulsory_miss_ratio": floor,
            "evictions_per_req": evictions / requests,
            "cells": cells,
            "requests_per_pass": requests,
            "passes": len(passes),
            "tail_percentile": tail,
        },
        attempted=cells,
        failed=failed,
        outputs=outputs,
        results=[(record_key(r), {"requests": r.requests,
                                  "misses": r.misses,
                                  "capacity": r.capacity})
                 for r in records],
        checks=[f"{len(passes)} passes gave identical cell results",
                f"{cells} cells, 0 failed, every cell evicts",
                f"mean miss ratio {miss_ratio:.4f} vs compulsory floor "
                f"{floor:.4f}",
                "fast FIFO and QD-LP-FIFO cells match the reference"],
    )


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------

@dataclass
class HotState:
    warm: List[int]
    chunks: List[List[int]]
    cluster: Any


def hot_cluster(registry=None, tracer=None, clock=None):
    return build_cluster(lambda: make("LRU", HOT_SHARD_CAPACITY),
                         shards=HOT_SHARDS, clock=clock or SystemClock(),
                         registry=registry, tracer=tracer)


def hot_setup(seed: int) -> HotState:
    total = HOT_WARM_GETS + HOT_CHUNK * HOT_CHUNKS
    keys = zipf_trace(HOT_OBJECTS, total, HOT_ALPHA,
                      np.random.default_rng(seed)).tolist()
    chunks = [keys[start:start + HOT_CHUNK]
              for start in range(HOT_WARM_GETS, total, HOT_CHUNK)]
    return HotState(keys[:HOT_WARM_GETS], chunks,
                    hot_cluster(registry=MetricsRegistry()))


def timed_replay(get, keys: Sequence[int]) -> List[float]:
    """Closed loop, one client: each get is timed from the client."""
    latencies = []
    record = latencies.append
    for key in keys:
        begun = pc()
        get(key)
        record(pc() - begun)
    return latencies


def hot_pass(state: HotState):
    """Every chunk once: ``(latencies, seconds, scale)`` each."""
    get = state.cluster.get
    return calibrated([lambda c=c: timed_replay(get, c)
                       for c in state.chunks])


def cluster_outcomes(cluster) -> Dict[str, int]:
    snap = cluster.metrics.snapshot()
    return {name: snap[name] for name in
            ("hit", "miss", "replica_hit", "stale", "shed", "error",
             "requests", "replications")}


def hot_run(state: HotState, seconds: float) -> Measured:
    cluster = state.cluster
    replay(cluster.get, state.warm)
    evictions_before = shard_evictions(cluster)
    outcomes: List[Dict[str, int]] = []

    def one_pass():
        start = cluster_outcomes(cluster)
        units = hot_pass(state)
        end = cluster_outcomes(cluster)
        outcomes.append({name: end[name] - start[name] for name in end})
        return units

    passes = repeat_passes(one_pass, seconds)
    cluster.metrics.check_conservation()
    shard_requests = sum(service.metrics.requests
                         for service in cluster.shards.values())
    check(shard_requests == cluster.metrics.requests,
          f"serve-hot: shards saw {shard_requests} gets, the cluster "
          f"{cluster.metrics.requests}")
    # Later passes replay the same keys on a warmer cache, so the first
    # pass's outcome counts are the deterministic output.
    first = outcomes[0]
    gets = first["requests"]
    lost = sum(sum(o[name] for name in ("error", "shed", "stale"))
               for o in outcomes)
    check(lost == 0, f"serve-hot: {lost} gets failed")
    hit_ratio = first["hit"] / gets
    in_band("serve-hot", hit_ratio)
    evictions = shard_evictions(cluster) - evictions_before
    check(evictions > 0, "serve-hot: the shards stopped evicting")

    best = fastest(passes)
    latencies = [lat * factor for unit_lat, _, factor in best
                 for lat in unit_lat]
    tail = tail_percentile(HOT_CHUNK)
    all_gets = sum(o["requests"] for o in outcomes)
    return Measured(
        metrics={
            "throughput_ops_s": len(latencies) / reference_seconds(best),
            "op_p50_us": 1e6 * quantile(latencies, 50),
            "op_tail_us": 1e6 * latency_tail(passes, tail),
            "miss_ratio": first["miss"] / gets,
            "served_ratio": 1.0 - lost / all_gets,
        },
        extras={
            "hit_ratio": hit_ratio,
            "evictions_per_req": evictions / all_gets,
            "replications_per_req": first["replications"] / gets,
            "gets_per_pass": gets,
            "passes": len(passes),
            "tail_percentile": tail,
        },
        attempted=all_gets,
        failed=lost,
        outputs=first,
        results=[(("serve-hot", "LRU", "pass0"), first)],
        checks=[f"cluster and {HOT_SHARDS} shards conserve outcomes over "
                f"{cluster.metrics.requests} gets",
                f"hit ratio {hit_ratio:.4f}, {evictions} evictions"],
    )


# ----------------------------------------------------------------------
# serve-churn
# ----------------------------------------------------------------------

@dataclass
class ChurnState:
    warm: List[int]
    keys: List[int]
    schedule: StepArrivals


def churn_setup(seed: int) -> ChurnState:
    schedule = StepArrivals(rate=CHURN_RATE, duration=CHURN_DURATION,
                            peak_rate=CHURN_PEAK_RATE, seed=seed)
    arrivals = len(schedule.times())
    keys = zipf_trace(CHURN_OBJECTS, CHURN_WARM_GETS + arrivals,
                      CHURN_ALPHA, np.random.default_rng(seed)).tolist()
    state = ChurnState(keys[:CHURN_WARM_GETS], keys[CHURN_WARM_GETS:],
                       schedule)
    churn_cluster(state)
    return state


def churn_cluster(state: ChurnState):
    """A fresh cluster on a fresh virtual clock, filled with warm keys."""
    cluster = build_cluster(lambda: make("QD-LP-FIFO", CHURN_SHARD_CAPACITY),
                            shards=CHURN_SHARDS, clock=VirtualClock())
    replay(cluster.get, state.warm)
    return cluster


def churn_open_loop(cluster, state: ChurnState):
    """The X6 adaptive front end driving *cluster* open loop."""
    queue = AdmissionQueue(capacity=CHURN_QUEUE, policy="drop-oldest",
                           deadline=CHURN_DEADLINE)
    limiter = AIMDLimiter(AimdConfig(target_delay=CHURN_TARGET_DELAY,
                                     max_limit=CHURN_CONCURRENCY))
    return run_open_cluster_load(cluster, state.keys, state.schedule,
                                 queue=queue, limiter=limiter,
                                 cost=ServiceCostModel())


def report_outputs(report) -> dict:
    return {"offered": report.offered,
            "outcomes": dict(sorted(report.outcomes.items())),
            "goodput": round(report.goodput, 6),
            "promotions": report.promotions,
            "lock_busy": round(report.lock_busy, 9),
            "queue_delay_p99": round(report.queue_delay_p99, 9)}


@dataclass
class ChurnPass:
    """One open-loop run, timed in stretches of :data:`CHURN_SEGMENT` gets."""

    #: per stretch: (get latencies, seconds, scale)
    segments: List[Tuple[List[float], float, float]]
    report: Any
    evictions: int


def churn_pass(state: ChurnState,
               instrument: Callable[[Any], None] = lambda cluster: None
               ) -> ChurnPass:
    """One open-loop run on a fresh cluster (``instrument``-ed first).

    The open loop cannot be cut into separate calls, so the benchmark's
    get wrapper closes a stretch every :data:`CHURN_SEGMENT` gets and
    runs the kernel there, outside the stretch's time.
    """
    cluster = churn_cluster(state)
    instrument(cluster)
    evictions_before = shard_evictions(cluster)
    inner = cluster.get
    segments = []
    latencies: List[float] = []
    kernel()  # the first call in a process reads slow; discard one
    marks = [kernel()]

    def close_stretch() -> None:
        nonlocal latencies, started
        took = pc() - started
        marks.append(kernel())
        segments.append((latencies, took, scale(marks[-2], marks[-1])))
        latencies = []
        started = pc()

    def timed_get(key, **kwargs):
        begun = pc()
        result = inner(key, **kwargs)
        latencies.append(pc() - begun)
        if len(latencies) == CHURN_SEGMENT:
            close_stretch()
        return result

    cluster.get = timed_get
    started = pc()
    report = churn_open_loop(cluster, state)
    close_stretch()
    report.check_conservation()
    cluster.metrics.check_conservation()
    return ChurnPass(segments, report,
                     shard_evictions(cluster) - evictions_before)


def churn_run(state: ChurnState, seconds: float) -> Measured:
    passes = repeat_passes(lambda: churn_pass(state), seconds)
    report = passes[0].report
    outputs = report_outputs(report)
    for again in passes[1:]:
        check(report_outputs(again.report) == outputs,
              "serve-churn: a later pass changed the open-loop outcome")
    segments = [p.segments for p in passes]
    best = fastest(segments)
    latencies = [lat * factor for unit_lat, _, factor in best
                 for lat in unit_lat]
    served = report.served
    hit_ratio = report.hit_ratio
    in_band("serve-churn", hit_ratio)
    evictions = passes[0].evictions
    check(evictions > 0, "serve-churn: the shards stopped evicting")
    lost = report.offered - served
    check(0.05 <= lost / report.offered <= 0.6,
          f"serve-churn: {lost}/{report.offered} arrivals lost; the step "
          f"no longer overloads the cluster as designed")
    tail = tail_percentile(CHURN_SEGMENT)
    return Measured(
        metrics={
            "throughput_ops_s": report.offered / reference_seconds(best),
            "op_p50_us": 1e6 * quantile(latencies, 50),
            "op_tail_us": 1e6 * latency_tail(segments, tail),
            "miss_ratio": report.outcomes.get("miss", 0) / served,
            "served_ratio": served / report.offered,
        },
        extras={
            "hit_ratio": hit_ratio,
            "evictions_per_req": evictions / len(latencies),
            "goodput_rps": report.goodput,
            "drop_ratio": report.drop_ratio,
            "queue_delay_p99_ms": 1e3 * report.queue_delay_p99,
            "arrivals_per_pass": report.offered,
            "passes": len(passes),
            "tail_percentile": tail,
        },
        attempted=report.offered,
        # Deadline drops are the admission control's designed answer to
        # the step (held to a band above); failed gets are errors.
        failed=(report.outcomes.get("error", 0)
                + report.outcomes.get("shed", 0)),
        outputs=outputs,
        results=[(("serve-churn", "QD-LP-FIFO", "pass0"), outputs)],
        checks=[f"{len(passes)} passes gave identical open-loop outcomes",
                f"open loop and cluster conserve outcomes over "
                f"{report.offered} arrivals",
                f"goodput {report.goodput:.1f} req/s (virtual), "
                f"{lost} lost to the step overload"],
    )


# ----------------------------------------------------------------------
# tier-web
# ----------------------------------------------------------------------

@dataclass
class TierCell:
    trace: str
    policy: str
    admission: str
    sized: Any
    config: Any


def tier_setup(seed: int) -> List[TierCell]:
    traces = build_corpus(scale=TIER_SCALE, traces_per_family=1, seed=seed,
                          families=list(WEB_FAMILIES))
    cells = []
    for trace in traces:
        sized = attach_sizes(trace, "lognormal", seed=seed)
        footprint = unique_bytes(sized)
        dram = max(4096, round(footprint * TIER_DRAM_FRACTION))
        flash = max(4096, round(footprint * TIER_FLASH_FRACTION))
        for policy in DRAM_POLICIES:
            for admission in ADMISSIONS:
                cells.append(TierCell(
                    trace.name, policy, admission, sized,
                    dram_flash_config(dram_bytes=dram, flash_bytes=flash,
                                      dram_policy=policy,
                                      flash_admission=admission)))
    return cells


def tier_key(cell: TierCell) -> Tuple[str, str, str]:
    return (cell.trace, cell.policy, cell.admission)


def tier_outputs(result) -> list:
    return [result.requests, result.overall_hits, result.flash_write_bytes,
            result.tier_report("dram").demoted_out]


def tier_pass(cells: List[TierCell]):
    """Every cell once: ``(result, seconds, scale)`` each."""
    return calibrated([lambda c=c: simulate_hierarchy(c.config, c.sized)
                       for c in cells])


def tier_run(cells: List[TierCell], seconds: float) -> Measured:
    passes = repeat_passes(lambda: tier_pass(cells), seconds)
    results = [result for result, _, _ in passes[0]]
    outputs = [list(tier_key(c)) + tier_outputs(r)
               for c, r in zip(cells, results)]
    for units in passes[1:]:
        check([list(tier_key(c)) + tier_outputs(r)
               for c, (r, _, _) in zip(cells, units)] == outputs,
              "tier-web: a later pass changed hierarchy results")
    best = fastest(passes)
    requests = sum(r.requests for r in results)
    per_request_us = [1e6 * took * factor / r.requests
                      for (r, took, factor) in best]
    tail = tail_percentile(len(per_request_us))
    hit_ratio = statistics.mean(r.overall_hit_ratio for r in results)
    in_band("tier-web", hit_ratio)
    demotions = sum(r.tier_report("dram").demoted_out for r in results)
    check(all(r.tier_report("dram").demoted_out > 0 for r in results),
          "tier-web: a DRAM tier stopped evicting")
    # Ghost admission may rightly reject every demotion of a cell (QD
    # already filters the one-hit wonders it would catch); admit-all
    # must always write.
    check(all(r.flash_write_bytes > 0 for c, r in zip(cells, results)
              if c.admission == "admit-all"),
          "tier-web: an admit-all flash tier took no writes")
    check(sum(r.flash_write_bytes for c, r in zip(cells, results)
              if c.admission == "ghost") > 0,
          "tier-web: ghost admission let no demotion into flash")
    return Measured(
        metrics={
            "throughput_ops_s": requests / reference_seconds(best),
            "op_p50_us": quantile(per_request_us, 50),
            "op_tail_us": quantile(per_request_us, tail),
            "miss_ratio": 1.0 - hit_ratio,
            "served_ratio": 1.0,
        },
        extras={
            "hit_ratio": hit_ratio,
            "evictions_per_req": demotions / requests,
            "flash_write_amp": statistics.mean(
                r.tier_report("flash").write_amplification
                for r in results),
            "cells": len(cells),
            "requests_per_pass": requests,
            "passes": len(passes),
            "tail_percentile": tail,
        },
        attempted=len(cells),
        failed=0,
        outputs=outputs,
        results=[(tier_key(c), {"requests": r.requests,
                                "misses": r.requests - r.overall_hits,
                                "flash_write_bytes": r.flash_write_bytes})
                 for c, r in zip(cells, results)],
        checks=[f"{len(passes)} passes gave identical hierarchy results",
                f"{len(cells)} cells conserve requests across tiers, every "
                f"DRAM tier evicts into flash"],
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], Any]
    run: Callable[[Any, float], Measured]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("sim-fig5",
             "the paper's Fig. 5 policies at its 0.1 % and 10 % sizes "
             "through run_sweep: fast engines and the reference loop, "
             "every cell evicts, no serving code",
             fig5_setup, fig5_run),
    Workload("serve-hot",
             "closed-loop gets, Zipf 1.2, ~87 % hits through a 4-shard "
             "LRU cluster with metrics: the lock-held hit path that lazy "
             "promotion is about",
             hot_setup, hot_run),
    Workload("serve-churn",
             "open-loop step overload, Zipf 0.6, ~3 % hits into "
             "QD-LP-FIFO shards: fetch, insert and quick-demotion "
             "eviction per get, plus the overload engine",
             churn_setup, churn_run),
    Workload("tier-web",
             "the X7 DRAM->flash grid on web traces with sizes: the only "
             "user of repro.sized and repro.hierarchy, demotions into "
             "flash on the write side",
             tier_setup, tier_run),
)}
