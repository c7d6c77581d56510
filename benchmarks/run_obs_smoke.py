"""Deterministic instrumented smoke sweep for the CI regression gate.

Runs a small fixed-seed (policy x size) sweep with the full temporal
observability stack enabled -- metrics registry, windowed
:class:`TimeSeriesRecorder`, and :class:`SpanTracer` -- checkpointed
under a known run id.  The run directory then holds:

* ``journal.jsonl`` -- results + final metrics + timeseries lines,
  the input to ``repro diff`` against the committed baseline at
  ``benchmarks/baselines/obs-smoke/journal.jsonl``;
* ``trace.json`` -- Chrome trace-event export (validated on write),
  uploaded as a CI artifact and loadable in ``chrome://tracing``;
* ``timeseries.jsonl`` -- the windowed curves as standalone JSONL for
  ``repro timeseries`` without journal access;
* ``reqtrace.jsonl`` + ``reqtrace.chrome.json`` -- kept request traces
  from a seeded LRU overload run with tail sampling.  The JSONL is
  diffed at **zero tolerance** against
  ``benchmarks/baselines/obs-smoke/reqtrace.jsonl`` when
  ``--reqtrace-baseline`` is given: head sampling, tail-keep rules,
  span ids and virtual-clock latencies are all seeded, so any byte of
  drift is a real behaviour change in the tracing stack.

The simulated workload is a seeded working-set-shift trace, so every
simulated quantity (results, sim counters, windowed curves) is
bit-reproducible across machines; only ``*_seconds`` metrics vary,
and ``repro diff`` ignores those by default.

Usage::

    python benchmarks/run_obs_smoke.py --runs-dir runs-ci \
        --reqtrace-baseline benchmarks/baselines/obs-smoke/reqtrace.jsonl
    PYTHONPATH=src python -m repro.cli diff \
        benchmarks/baselines/obs-smoke/journal.jsonl runs-ci/obs-smoke \
        --metric-tolerance 0 --miss-ratio-tolerance 0 \
        --timeseries-tolerance 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np                                        # noqa: E402

from repro.obs import (                                   # noqa: E402
    MetricsRegistry,
    SpanTracer,
    TimeSeriesRecorder,
)
from repro.sim.options import SimOptions                  # noqa: E402
from repro.sim.runner import run_sweep                    # noqa: E402
from repro.traces.synthetic import working_set_shift_trace  # noqa: E402
from repro.traces.trace import Trace                      # noqa: E402

SEED = 20260806
POLICIES = ("LRU", "FIFO", "QD-LP-FIFO")
SIZES = (0.01, 0.1)
CADENCE = 1000

# Cluster phase: a fixed-seed shard-kill run whose per-shard counters
# (service_requests_total{shard=}, cluster_requests_total{outcome=},
# cluster_ring_nodes, cluster_shard_up{shard=}) land in the same
# registry, so `repro diff` regression-gates the router's behaviour
# and label layout alongside the sweep.
CLUSTER_SHARDS = 4
CLUSTER_REQUESTS = 4000
CLUSTER_UNIVERSE = 800
CLUSTER_TICK = 0.01

# Request-trace phase: an LRU service under a seeded step overload,
# head-sampled at 20% with tail keep rules, all on a VirtualClock.
# Every kept trace -- ids, spans, latencies, keep reasons -- is
# bit-reproducible, which is what lets CI diff the JSONL at zero
# tolerance.
REQTRACE_SAMPLE = 0.2
REQTRACE_REQUESTS = 6000
REQTRACE_UNIVERSE = 400
REQTRACE_RATE = 120.0
REQTRACE_PEAK = 800.0
REQTRACE_DURATION = 8.0


def build_trace() -> Trace:
    """The frozen smoke workload: three abrupt working-set shifts."""
    rng = np.random.default_rng(SEED)
    keys = working_set_shift_trace(
        objects_per_phase=1500, requests_per_phase=10_000, num_phases=3,
        alpha=1.0, overlap=0.2, rng=rng)
    return Trace(name="obs-smoke-shift", keys=keys,
                 family="synthetic", group="block")


def run_cluster_phase(registry: MetricsRegistry) -> None:
    """Drive a deterministic kill-one-shard cluster run into *registry*.

    Virtual-clock, fixed seed, single thread: every counter and gauge
    it contributes is bit-identical across machines (latency histograms
    are ``*_seconds`` and diff-ignored).
    """
    from repro.exec.clock import VirtualClock
    from repro.policies.registry import make
    from repro.cluster import (
        ClusterConfig,
        build_cluster,
        make_cluster_workload,
        run_cluster_load,
    )

    clock = VirtualClock()
    cluster = build_cluster(
        lambda: make("QD-LP-FIFO", 100),
        shards=CLUSTER_SHARDS,
        config=ClusterConfig(replicas=1, hot_key_threshold=4,
                             front_cache_size=8),
        clock=clock,
        registry=registry,
    )
    duration = CLUSTER_REQUESTS * CLUSTER_TICK
    cluster.kill("s1", 0.4 * duration, 0.7 * duration)
    workload = make_cluster_workload(CLUSTER_REQUESTS,
                                     universe=CLUSTER_UNIVERSE,
                                     alpha=1.1, seed=SEED)
    report = run_cluster_load(cluster, workload.keys, threads=1,
                              tick=CLUSTER_TICK)
    report.check_accounting()
    cluster.metrics.check_conservation()
    print(f"obs smoke cluster: {report.requests} requests, "
          f"availability {report.availability:.4f}, "
          f"{report.outcomes['replica_hit']} replica hits")


def run_reqtrace_phase(registry: MetricsRegistry):
    """Drive the seeded request-trace overload run into *registry*.

    An LRU :class:`CacheService` on a VirtualClock, offered a step
    overload through the open-loop engine with request tracing on.
    Returns the :class:`RequestTracer` so the caller can write the
    kept traces into the run directory once it exists; the sampler
    counters (``reqtrace_*``) land in the shared registry and are
    regression-gated by ``repro diff`` alongside everything else.
    """
    from repro.exec.clock import VirtualClock
    from repro.obs import RequestTracer
    from repro.policies.registry import make
    from repro.service import (
        CacheService,
        InMemoryBackend,
        ServiceConfig,
        run_open_load,
    )
    from repro.service.overload import (
        AdmissionQueue,
        ServiceCostModel,
        make_limiter,
        make_schedule,
    )
    from repro.traces.synthetic import zipf_trace

    clock = VirtualClock()
    tracer = RequestTracer(sample=REQTRACE_SAMPLE, seed=SEED,
                           clock=clock, registry=registry)
    service = CacheService(make("LRU", 64), InMemoryBackend(),
                           ServiceConfig(), clock=clock,
                           registry=registry, tracer=tracer)
    rng = np.random.default_rng(SEED)
    keys = zipf_trace(REQTRACE_UNIVERSE, REQTRACE_REQUESTS, 1.1,
                      rng).tolist()
    schedule = make_schedule("step", rate=REQTRACE_RATE,
                             duration=REQTRACE_DURATION,
                             peak_rate=REQTRACE_PEAK, seed=SEED)
    report = run_open_load(service, keys, schedule,
                           queue=AdmissionQueue(capacity=128,
                                                deadline=0.25),
                           limiter=make_limiter("static",
                                                static_limit=4),
                           cost=ServiceCostModel(), registry=registry,
                           tracer=tracer)
    report.check_conservation()
    summary = tracer.summary()
    print(f"obs smoke reqtrace: {report.offered} offered, "
          f"{summary['kept']} kept of {summary['sampled']} sampled "
          f"/ {summary['requests']} requests")
    return tracer


def check_reqtrace_baseline(trace_path: Path, baseline: Path) -> bool:
    """Zero-tolerance comparison of kept traces against the baseline.

    Both files are compared as parsed JSON rows (not raw bytes) so
    the gate is insensitive to key ordering but catches any change in
    sampling decisions, span structure, ids, or latencies.
    """
    current = [json.loads(line)
               for line in trace_path.read_text().splitlines()]
    expected = [json.loads(line)
                for line in baseline.read_text().splitlines()]
    if current == expected:
        print(f"reqtrace baseline: {len(current)} traces match "
              f"{baseline}")
        return True
    print(f"reqtrace baseline MISMATCH vs {baseline}: "
          f"{len(current)} traces now, {len(expected)} expected",
          file=sys.stderr)
    for index, (now, then) in enumerate(zip(current, expected)):
        if now != then:
            print(f"  first divergent row {index}: "
                  f"trace {then.get('trace_id')} -> "
                  f"{now.get('trace_id')}", file=sys.stderr)
            break
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs-dir", default="runs-ci",
                        help="runs root to create the run under")
    parser.add_argument("--run-id", default="obs-smoke",
                        help="run id (directory name) for the journal")
    parser.add_argument("--reqtrace-baseline", default=None,
                        help="committed reqtrace.jsonl to diff the "
                             "kept request traces against at zero "
                             "tolerance")
    args = parser.parse_args(argv)

    registry = MetricsRegistry()
    recorder = TimeSeriesRecorder(registry, cadence=CADENCE)
    tracer = SpanTracer(registry)
    opts = SimOptions(metrics=registry, timeseries=recorder,
                      tracer=tracer)

    # The cluster and reqtrace phases share the registry (their
    # counters ride the journal's metrics line) but not the recorder:
    # the sweep samples on request counts, the others on virtual
    # seconds, and mixing the two time bases would corrupt the
    # windowed curves.
    run_cluster_phase(registry)
    reqtracer = run_reqtrace_phase(registry)

    result = run_sweep(list(POLICIES), [build_trace()],
                       size_fractions=SIZES, options=opts,
                       checkpoint=True, run_id=args.run_id,
                       runs_dir=args.runs_dir)
    run_dir = Path(args.runs_dir) / args.run_id
    recorder.write_jsonl(run_dir / "timeseries.jsonl")
    reqtrace_path = run_dir / "reqtrace.jsonl"
    reqtracer.write_jsonl(reqtrace_path)
    reqtracer.write_chrome_trace(run_dir / "reqtrace.chrome.json")

    print(f"obs smoke sweep: {len(result.records)} cells "
          f"({result.accelerated} fast), run {run_dir}")
    for record in sorted(result.records,
                         key=lambda r: (r.policy, r.size_fraction)):
        print(f"  {record.policy:12s} size {record.size_fraction:<5g} "
              f"miss ratio {record.miss_ratio:.4f}")
    if not result.ok:
        print(f"FAILED cells: {result.failures}", file=sys.stderr)
        return 1
    for artifact in ("journal.jsonl", "trace.json", "timeseries.jsonl",
                     "reqtrace.jsonl", "reqtrace.chrome.json"):
        if not (run_dir / artifact).is_file():
            print(f"missing artifact: {run_dir / artifact}",
                  file=sys.stderr)
            return 1
    if args.reqtrace_baseline is not None:
        if not check_reqtrace_baseline(reqtrace_path,
                                       Path(args.reqtrace_baseline)):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
