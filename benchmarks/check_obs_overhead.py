"""Observability overhead gate for the fast simulation path and serving.

The telemetry subsystem (``repro.obs``) is opt-in, but when a caller
*does* pass ``SimOptions(metrics=...)`` the fast path must stay fast:
the per-cell recording is a handful of counter updates, not per-request
work.  This gate replays the frozen ``BENCH_WORKLOAD`` (the workload
behind ``BENCH_throughput.json``) through ``simulate`` on the
vectorized path in three variants -- uninstrumented, with a live
:class:`MetricsRegistry`, and with windowed time-series sampling at
cadence 1/1000 (``SimOptions(timeseries=...)``, whose fast-path cost is
one post-hoc ``reduceat`` over the hit mask) -- and fails when either
instrumented variant's throughput drops more than ``--tolerance``
(default 5 %) below the uninstrumented run.

Serving pays per request, so it is gated as a price, not a tolerance:
a hit-dominated Zipf stream goes through a bare 4-shard
``build_cluster``, one with a :class:`MetricsRegistry` and one with a
``RequestTracer(sample=0)``.  The variants take turns on each chunk of
gets, so a slow moment of the machine hits all of them alike; each
prints its us per get, and the run fails when an instrumented
variant's us per get over the bare one's exceeds its ceiling in
:data:`SERVING_MAX_RATIO`.

Exit status 1 on regression, 0 when within tolerance.

Usage::

    python benchmarks/check_obs_overhead.py
    python benchmarks/check_obs_overhead.py --tolerance 0.10 --repeats 5
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np                                        # noqa: E402

from repro.cluster import build_cluster                   # noqa: E402
from repro.exec.clock import SystemClock                  # noqa: E402
from repro.experiments.throughput import (                # noqa: E402
    BENCH_WORKLOAD,
    FAST_POLICIES,
)
from repro.obs import (                                   # noqa: E402
    MetricsRegistry,
    RequestTracer,
    TimeSeriesRecorder,
)
from repro.policies.registry import make                  # noqa: E402
from repro.sim import SimOptions, simulate                # noqa: E402
from repro.traces import from_keys                        # noqa: E402
from repro.traces.synthetic import zipf_trace             # noqa: E402

#: The policies with a fast engine, in registry order.
POLICIES = tuple(FAST_POLICIES)

#: Serving stream: Zipf 1.2 over 100 k keys into 4 LRU shards of 1 k
#: (about 87 % hits, every miss evicts once warm).
SERVING_OBJECTS = 100_000
SERVING_ALPHA = 1.2
SERVING_SHARDS = 4
SERVING_SHARD_CAPACITY = 1_000
SERVING_WARM = 30_000
SERVING_CHUNK = 2_000
SERVING_CHUNKS = 10
SERVING_SEED = 42

#: Ceilings on instrumented / bare us per get.  Five runs of this
#: script on a 2-vCPU container (bare 11.2-12.5 us per get) gave
#: metrics 1.15-1.24 and reqtrace0 1.15-1.23; each ceiling is the
#: largest of those plus about 0.15.
SERVING_MAX_RATIO = {"metrics": 1.40, "reqtrace0": 1.40}


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _serving_cluster(registry=None, tracer=None, clock=None):
    return build_cluster(lambda: make("LRU", SERVING_SHARD_CAPACITY),
                         shards=SERVING_SHARDS, clock=clock,
                         registry=registry, tracer=tracer)


def serving_overhead(repeats: int):
    """us per get for each serving variant (bare first)."""
    clock = SystemClock()
    clusters = {
        "bare": _serving_cluster(clock=clock),
        "metrics": _serving_cluster(registry=MetricsRegistry(), clock=clock),
        "reqtrace0": _serving_cluster(
            tracer=RequestTracer(sample=0.0, clock=clock), clock=clock),
    }
    rng = np.random.default_rng(SERVING_SEED)
    keys = zipf_trace(SERVING_OBJECTS,
                      SERVING_WARM + SERVING_CHUNK * SERVING_CHUNKS,
                      SERVING_ALPHA, rng).tolist()
    warm, timed = keys[:SERVING_WARM], keys[SERVING_WARM:]
    for cluster in clusters.values():
        for key in warm:
            cluster.get(key)
    seconds = dict.fromkeys(clusters, 0.0)
    for start in range(0, len(timed), SERVING_CHUNK):
        chunk = timed[start:start + SERVING_CHUNK]
        best = dict.fromkeys(clusters, float("inf"))
        # Turns alternate within a chunk; each variant keeps its
        # fastest turn, as the fast-path variants keep their best run.
        for _ in range(repeats):
            for name, cluster in clusters.items():
                get = cluster.get
                begun = time.perf_counter()
                for key in chunk:
                    get(key)
                best[name] = min(best[name], time.perf_counter() - begun)
        for name in clusters:
            seconds[name] += best[name]
    return {name: 1e6 * took / len(timed) for name, took in seconds.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed fractional throughput loss with "
                             "instrumentation enabled (default 5%%)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per variant (best-of)")
    args = parser.parse_args(argv)

    spec = BENCH_WORKLOAD
    rng = np.random.default_rng(int(spec["seed"]))
    keys = zipf_trace(int(spec["num_objects"]), int(spec["num_requests"]),
                      float(spec["alpha"]), rng)
    trace = from_keys(keys.tolist(), name="obs-overhead")
    capacity = int(spec["capacity"])
    n = len(keys)

    failures = []
    print(f"obs overhead gate: {n} requests, capacity {capacity}, "
          f"tolerance {args.tolerance:.0%}")
    for name in POLICIES:
        plain_opts = SimOptions(fast=True)

        def run_plain(name=name, opts=plain_opts):
            simulate(make(name, capacity), trace, opts)

        def run_instrumented(name=name):
            # A fresh registry per run: steady-state cost, not re-use
            # of already-created metric objects from a previous run.
            opts = SimOptions(fast=True, metrics=MetricsRegistry())
            simulate(make(name, capacity), trace, opts)

        def run_timeseries(name=name):
            # Windowed sampling at one sample per 1000 requests; the
            # fast path pays one reduceat over the hit mask, not
            # per-request tick() calls.
            opts = SimOptions(
                fast=True,
                timeseries=TimeSeriesRecorder(cadence=1000))
            simulate(make(name, capacity), trace, opts)

        t_plain = _best_of(args.repeats, run_plain)
        floor = 1.0 - args.tolerance
        for label, variant in (("instrumented", run_instrumented),
                               ("timeseries", run_timeseries)):
            t_obs = _best_of(args.repeats, variant)
            ratio = t_plain / t_obs  # variant throughput / plain
            status = "ok" if ratio >= floor else "REGRESSED"
            print(f"{name:16s} plain {n / t_plain / 1e6:6.2f} M req/s  "
                  f"{label:12s} {n / t_obs / 1e6:6.2f} M req/s  "
                  f"ratio {ratio:5.3f}  floor {floor:.3f}  {status}")
            if ratio < floor:
                failures.append(
                    f"{name}: {label} throughput is {ratio:.1%} of "
                    f"plain (floor {floor:.0%})")

    per_get = serving_overhead(args.repeats)
    bare = per_get["bare"]
    print(f"serving: {SERVING_SHARDS}-shard cluster, "
          f"{SERVING_CHUNK * SERVING_CHUNKS} gets, bare {bare:.2f} us/get")
    for label, ceiling in SERVING_MAX_RATIO.items():
        ratio = per_get[label] / bare
        status = "ok" if ratio <= ceiling else "REGRESSED"
        print(f"serving {label:10s} {per_get[label]:6.2f} us/get  "
              f"ratio {ratio:5.3f}  ceiling {ceiling:.2f}  {status}")
        if ratio > ceiling:
            failures.append(
                f"serving {label}: {ratio:.2f}x the bare cluster's us per "
                f"get (ceiling {ceiling:.2f}x)")

    if failures:
        print("\nobs overhead gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("obs overhead within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
