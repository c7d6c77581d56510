"""The traced run: per-layer metrics for every workload.

Each workload runs one pass with tracing off and one traced pass over
the same units.  The traced pass wraps the public calls into each layer
(:mod:`spans`): ``CacheCluster.get``, every shard's ``get``, each
shard's ``policy.request`` and ``backend.fetch``, ``ring.owners``, the
hierarchy's ``request`` and every ``Tier``'s ``lookup``/``insert``/
``demote_in``.  The simulator sweeps use their own cell spans
(``SimOptions(tracer=SpanTracer())``).  Span times are raw wall clock;
``trace.overhead_ratio.<w>`` -- the traced pass's throughput over the
untraced pass's -- compares both at the reference speed
(:mod:`calibrate`).

:data:`LAYER_METRICS` names every per-layer metric with the workload it
is measured on and the end-to-end metric it should move there.
"""

from __future__ import annotations

import gc
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple

from repro.exec.clock import SystemClock
from repro.hierarchy import CacheHierarchy
from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import RequestTracer
from repro.obs.span import SpanTracer
from repro.sim.fast.intern import intern_trace
from repro.sim.options import SimOptions
from repro.sim.runner import run_sweep

from calibrate import calibrated
from spans import SpanRecorder
import workloads as w


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    workload: str
    moves: str   # the end-to-end metric this layer should move


#: Fig. 5 policies with a fast engine when the benchmark was defined.
#: ``fast.vs_ref.<name>`` is reference time over the sweep's own time on
#: the same cells, so an engine that is later removed reads about 1.
FAST_ENGINES = ("FIFO", "LRU", "ARC", "LHD", "QD-ARC", "QD-LHD",
                "QD-LP-FIFO")

LAYER_METRICS: List[LayerMetric] = [
    LayerMetric("traces.build_s", "s", "lower", "sim-fig5", "setup_s"),
    LayerMetric("fast.intern_s", "s", "lower", "sim-fig5",
                "throughput_ops_s"),
    LayerMetric("fast.replay_us_per_req", "us", "lower", "sim-fig5",
                "throughput_ops_s"),
    LayerMetric("fast.cells", "count", "higher", "sim-fig5",
                "throughput_ops_s"),
    *[LayerMetric(f"fast.vs_ref.{name}", "ratio", "higher", "sim-fig5",
                  "throughput_ops_s") for name in FAST_ENGINES],
    LayerMetric("ref.request_us_per_req", "us", "lower", "sim-fig5",
                "throughput_ops_s"),
    LayerMetric("ref.cells", "count", "lower", "sim-fig5",
                "throughput_ops_s"),
    *[LayerMetric(f"cell_s.{name}", "s", "lower", "sim-fig5",
                  "throughput_ops_s, op_tail_us") for name in w.FIG5_POLICIES],
    LayerMetric("exec.overhead_s", "s", "lower", "sim-fig5",
                "throughput_ops_s"),
    LayerMetric("cluster.get_self_us", "us", "lower", "serve-hot",
                "op_p50_us"),
    LayerMetric("ring.owners_us", "us", "lower", "serve-hot", "op_p50_us"),
    LayerMetric("service.get_self_us", "us", "lower", "serve-hot",
                "op_p50_us, op_tail_us"),
    LayerMetric("policy.hit_us", "us", "lower", "serve-hot", "op_p50_us"),
    LayerMetric("policy.promotions_per_req", "count", "lower", "serve-hot",
                "op_p50_us"),
    LayerMetric("policy.evictions_per_req", "count", "lower", "serve-hot",
                "miss_ratio"),
    LayerMetric("obs.metrics_us_per_get", "us", "lower", "serve-hot",
                "op_p50_us"),
    LayerMetric("obs.reqtrace0_us_per_get", "us", "lower", "serve-hot",
                "op_p50_us"),
    LayerMetric("obs.reqtrace1_us_per_get", "us", "lower", "serve-hot",
                "op_p50_us"),
    LayerMetric("cluster.replications_per_req", "count", "lower",
                "serve-churn", "throughput_ops_s"),
    LayerMetric("backend.fetch_us", "us", "lower", "serve-churn",
                "throughput_ops_s"),
    LayerMetric("backend.fetches_per_req", "count", "lower", "serve-churn",
                "throughput_ops_s"),
    LayerMetric("policy.miss_us", "us", "lower", "serve-churn",
                "throughput_ops_s"),
    LayerMetric("overload.engine_self_us", "us", "lower", "serve-churn",
                "throughput_ops_s"),
    LayerMetric("overload.goodput_rps", "1/s", "higher", "serve-churn",
                "served_ratio"),
    LayerMetric("overload.drop_ratio", "ratio", "lower", "serve-churn",
                "served_ratio"),
    LayerMetric("overload.queue_delay_p99_ms", "ms", "lower", "serve-churn",
                "served_ratio"),
    LayerMetric("overload.lock_busy_s", "s", "lower", "serve-churn",
                "served_ratio"),
    LayerMetric("hierarchy.request_self_us", "us", "lower", "tier-web",
                "throughput_ops_s"),
    LayerMetric("tier.dram.lookup_us", "us", "lower", "tier-web",
                "throughput_ops_s"),
    LayerMetric("tier.flash.lookup_us", "us", "lower", "tier-web",
                "throughput_ops_s"),
    LayerMetric("tier.demote_in_us", "us", "lower", "tier-web",
                "throughput_ops_s"),
    LayerMetric("tier.demotions_per_req", "count", "lower", "tier-web",
                "tier.flash.write_amp"),
    LayerMetric("tier.flash.admit_ratio", "ratio", "lower", "tier-web",
                "tier.flash.write_amp"),
    LayerMetric("tier.flash.write_amp", "ratio", "lower", "tier-web",
                "throughput_ops_s"),
    *[LayerMetric(f"trace.overhead_ratio.{name}", "ratio", "higher", name,
                  "throughput_ops_s") for name in w.WORKLOADS],
]


def hit_or_miss(result) -> str:
    return "hit" if result else "miss"


def wrap_cluster(recorder: SpanRecorder, cluster) -> None:
    """Spans around the cluster, its ring and every shard's layers."""
    recorder.wrap(cluster, "get", "cluster.get")
    recorder.wrap(cluster.ring, "owners", "ring.owners")
    for service in cluster.shards.values():
        recorder.wrap(service, "get", "service.get")
        recorder.wrap(service.policy, "request", "policy.request",
                      tag=hit_or_miss)
        recorder.wrap(service.backend, "fetch", "backend.fetch")


def promotions(cluster) -> int:
    return sum(service.policy.promotion_count
               for service in cluster.shards.values())


# ----------------------------------------------------------------------
# sim-fig5
# ----------------------------------------------------------------------

def cell_spans(tracer: SpanTracer) -> Dict[tuple, tuple]:
    """(trace, policy, size) -> (seconds, path) of each cell span."""
    out = {}
    for span in tracer.spans(cat="cell"):
        if "key" in span.args:
            trace, policy, size = span.args["key"]
        else:
            trace, policy, size = (span.args["trace"], span.args["policy"],
                                   span.args["size"])
        out[(trace, policy, float(size))] = (span.duration,
                                             span.args["path"])
    return out


def fig5_ledger(traces, out: Path) -> Dict[str, float]:
    gc.collect()
    plain = w.fig5_pass([w.fresh(t) for t in traces])
    expected = {w.record_key(r): r for r in w.fig5_records(plain)}

    copies = [w.fresh(t) for t in traces]
    started = w.pc()
    for trace in copies:
        intern_trace(trace)
    intern_s = w.pc() - started
    tracer = SpanTracer()
    gc.collect()
    traced = w.fig5_pass(copies, SimOptions(
        min_capacity=w.FIG5_MIN_CAPACITY, tracer=tracer))
    records = {w.record_key(r): r for r in w.fig5_records(traced)}
    w.check(records == expected,
            "sim-fig5: the traced sweep changed cell results")
    tracer.write_chrome_trace(out / "spans-sim-fig5.json")
    cells = cell_spans(tracer)

    ref_tracer = SpanTracer()
    for trace in traces:
        ref = run_sweep(FAST_ENGINES, [w.fresh(trace)],
                        size_fractions=w.FIG5_SIZES, workers=1,
                        options=SimOptions(min_capacity=w.FIG5_MIN_CAPACITY,
                                           fast=False, tracer=ref_tracer))
        for r in ref.records:
            w.check(r.misses == records[w.record_key(r)].misses,
                    f"sim-fig5: fast engine and reference disagree on "
                    f"{w.record_key(r)}")
    ref_cells = cell_spans(ref_tracer)

    def on_path(path: str):
        return [(seconds, records[key].requests)
                for key, (seconds, cell_path) in cells.items()
                if cell_path == path]

    fast, exec_ = on_path("fast"), on_path("exec")
    metrics = {
        "fast.intern_s": intern_s,
        "fast.replay_us_per_req": 1e6 * sum(s for s, _ in fast)
        / sum(n for _, n in fast),
        "fast.cells": len(fast),
        "ref.request_us_per_req": 1e6 * sum(s for s, _ in exec_)
        / sum(n for _, n in exec_),
        "ref.cells": len(exec_),
        "exec.overhead_s": sum(took for _, took, _ in traced)
        - sum(s for s, _ in cells.values()),
    }
    for engine in FAST_ENGINES:
        keys = [key for key in cells if key[1] == engine]
        metrics[f"fast.vs_ref.{engine}"] = (
            sum(ref_cells[key][0] for key in keys)
            / sum(cells[key][0] for key in keys))
    for policy in w.FIG5_POLICIES:
        metrics[f"cell_s.{policy}"] = sum(
            seconds for key, (seconds, _) in cells.items()
            if key[1] == policy)
    metrics["trace.overhead_ratio.sim-fig5"] = (
        w.reference_seconds(plain)
        / (w.reference_seconds(traced) + intern_s))
    return metrics


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------

#: obs probe: cluster variants compared with a bare one, per get.
OBS_VARIANTS: Dict[str, Callable] = {
    "bare": lambda clock: w.hot_cluster(clock=clock),
    "metrics": lambda clock: w.hot_cluster(registry=MetricsRegistry(),
                                           clock=clock),
    "reqtrace0": lambda clock: w.hot_cluster(
        tracer=RequestTracer(sample=0.0, clock=clock), clock=clock),
    "reqtrace1": lambda clock: w.hot_cluster(
        tracer=RequestTracer(sample=1.0, clock=clock), clock=clock),
}
#: serve-hot chunks replayed by the untraced and traced passes, and by
#: each variant of the obs probe
LEDGER_CHUNKS = 16
OBS_CHUNKS = 8


def obs_probe(state) -> Dict[str, float]:
    """Extra us per get that each instrumentation level costs.

    The variants take turns on each chunk between calibration kernels,
    so a slow moment of the machine is scaled out of all of them alike.
    """
    clusters = {}
    for name, build in OBS_VARIANTS.items():
        clusters[name] = build(SystemClock())
        w.replay(clusters[name].get, state.warm[:len(state.warm) // 2])
    seconds = dict.fromkeys(clusters, 0.0)
    chunks = state.chunks[:OBS_CHUNKS]
    for chunk in chunks:
        turns = calibrated([lambda c=cluster: w.replay(c.get, chunk)
                            for cluster in clusters.values()])
        for name, (_, took, scale) in zip(clusters, turns):
            seconds[name] += took * scale
    gets = sum(len(chunk) for chunk in chunks)
    return {f"obs.{name}_us_per_get":
            1e6 * (seconds[name] - seconds["bare"]) / gets
            for name in ("metrics", "reqtrace0", "reqtrace1")}


def hot_ledger(state, out: Path) -> Dict[str, float]:
    cluster = state.cluster
    w.replay(cluster.get, state.warm)
    chunks = state.chunks[:LEDGER_CHUNKS]
    gc.collect()
    untraced = w.reference_seconds(calibrated(
        [lambda c=c: w.replay(cluster.get, c) for c in chunks]))

    recorder = SpanRecorder()
    wrap_cluster(recorder, cluster)
    gets_before = cluster.metrics.requests
    promotions_before = promotions(cluster)
    evictions_before = w.shard_evictions(cluster)

    def traced_chunk(chunk):
        w.replay(cluster.get, chunk)
        recorder.flush()

    gc.collect()
    traced = w.reference_seconds(calibrated(
        [lambda c=c: traced_chunk(c) for c in chunks]))
    cluster.metrics.check_conservation()
    recorder.write_chrome(out / "spans-serve-hot.json")
    gets = cluster.metrics.requests - gets_before
    metrics = {
        "cluster.get_self_us": recorder.stats("cluster.get").self_mean_us(),
        "ring.owners_us": recorder.stats("ring.owners").mean_us(),
        "service.get_self_us":
            recorder.stats("service.get").self_mean_us(),
        "policy.hit_us": recorder.stats("policy.request", "hit").mean_us(),
        "policy.promotions_per_req":
            (promotions(cluster) - promotions_before) / gets,
        "policy.evictions_per_req":
            (w.shard_evictions(cluster) - evictions_before) / gets,
        "trace.overhead_ratio.serve-hot": untraced / traced,
    }
    metrics.update(obs_probe(state))
    return metrics


# ----------------------------------------------------------------------
# serve-churn
# ----------------------------------------------------------------------

def churn_ledger(state, out: Path) -> Dict[str, float]:
    gc.collect()
    plain = w.churn_pass(state)
    recorder = SpanRecorder()
    instrumented = []

    def instrument(cluster):
        wrap_cluster(recorder, cluster)
        instrumented.append((cluster, cluster.metrics.replications))

    gc.collect()
    traced = w.churn_pass(state, instrument)
    recorder.write_chrome(out / "spans-serve-churn.json")
    report = traced.report
    w.check(w.report_outputs(report) == w.report_outputs(plain.report),
            "serve-churn: the traced pass changed the open-loop outcome")
    gets = recorder.stats("cluster.get")
    engine_s = sum(took for _, took, _ in traced.segments) - gets.total
    [(cluster, replications)] = instrumented
    return {
        "cluster.replications_per_req":
            (cluster.metrics.replications - replications) / gets.count,
        "backend.fetch_us": recorder.stats("backend.fetch").mean_us(),
        "backend.fetches_per_req":
            recorder.stats("backend.fetch").count / gets.count,
        "policy.miss_us": recorder.stats("policy.request", "miss").mean_us(),
        "overload.engine_self_us": 1e6 * engine_s / report.offered,
        "overload.goodput_rps": report.goodput,
        "overload.drop_ratio": report.drop_ratio,
        "overload.queue_delay_p99_ms": 1e3 * report.queue_delay_p99,
        "overload.lock_busy_s": report.lock_busy,
        "trace.overhead_ratio.serve-churn":
            w.reference_seconds(plain.segments)
            / w.reference_seconds(traced.segments),
    }


# ----------------------------------------------------------------------
# tier-web
# ----------------------------------------------------------------------

def traced_replay(recorder: SpanRecorder, cell) -> CacheHierarchy:
    """simulate_hierarchy's replay, with spans around the tier calls."""
    hierarchy = CacheHierarchy(cell.config)
    recorder.wrap(hierarchy, "request", "hierarchy.request")
    for tier in hierarchy.tiers:
        for method in ("lookup", "insert", "demote_in"):
            recorder.wrap(tier, method, f"tier.{tier.name}.{method}")
    request = hierarchy.request
    for key, size in zip(*cell.sized):
        request(key, size)
    recorder.flush()
    return hierarchy


def tier_ledger(cells, out: Path) -> Dict[str, float]:
    gc.collect()
    plain = w.tier_pass(cells)
    recorder = SpanRecorder()
    gc.collect()
    traced = calibrated([lambda c=c: traced_replay(recorder, c)
                         for c in cells])
    requests = demotions = admitted = demoted_in = 0
    write_amp = []
    for cell, (expected, _, _), (hierarchy, _, _) in zip(cells, plain,
                                                          traced):
        hierarchy.check_conservation()
        dram, flash = hierarchy.tier("dram"), hierarchy.tier("flash")
        w.check([hierarchy.requests, hierarchy.overall_hits,
                 flash.stats.write_bytes, dram.stats.demoted_out]
                == w.tier_outputs(expected),
                f"tier-web: traced replay of {w.tier_key(cell)} differs "
                f"from simulate_hierarchy")
        requests += hierarchy.requests
        demotions += dram.stats.demoted_out
        admitted += flash.stats.demoted_in_admitted
        demoted_in += flash.stats.demoted_in
        write_amp.append(flash.stats.write_amplification)
    recorder.write_chrome(out / "spans-tier-web.json")
    return {
        "hierarchy.request_self_us":
            recorder.stats("hierarchy.request").self_mean_us(),
        "tier.dram.lookup_us": recorder.stats("tier.dram.lookup").mean_us(),
        "tier.flash.lookup_us":
            recorder.stats("tier.flash.lookup").mean_us(),
        "tier.demote_in_us": recorder.stats("tier.flash.demote_in").mean_us(),
        "tier.demotions_per_req": demotions / requests,
        "tier.flash.admit_ratio": admitted / demoted_in,
        "tier.flash.write_amp": sum(write_amp) / len(write_amp),
        "trace.overhead_ratio.tier-web":
            w.reference_seconds(plain) / w.reference_seconds(traced),
    }


LEDGERS = {
    "sim-fig5": fig5_ledger,
    "serve-hot": hot_ledger,
    "serve-churn": churn_ledger,
    "tier-web": tier_ledger,
}
