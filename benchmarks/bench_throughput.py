"""Bench X1 -- the throughput argument (paper §1/§2).

Two parts:

1. A comparative sweep (the experiment): requests/second per policy on
   a hot Zipf workload, written to results/throughput.txt.
2. Per-policy microbenchmarks under pytest-benchmark proper, so the
   timing table shows the relative hit-path cost of FIFO vs LRU vs the
   complex state of the art.
"""

import numpy as np
import pytest
from conftest import run_once

from repro.experiments import throughput
from repro.policies.registry import make
from repro.traces.synthetic import zipf_trace

_NUM_OBJECTS = 2000
_NUM_REQUESTS = 20_000


@pytest.fixture(scope="module")
def hot_keys():
    rng = np.random.default_rng(99)
    return zipf_trace(_NUM_OBJECTS, _NUM_REQUESTS, 1.1, rng).tolist()


def test_throughput_experiment(benchmark):
    result = run_once(benchmark, throughput.run)
    print()
    print(result.render())
    relative = result.relative_to("LRU")
    # The FIFO family's hit path must not be slower than LRU's.
    assert relative["FIFO"] > 1.0
    benchmark.extra_info.update(
        {name: round(v / 1e3, 1) for name, v in
         result.ops_per_second.items()})


def test_fast_engine_speedup(benchmark):
    """Smoke-scale fast-vs-reference comparison: every fast engine must
    agree with its reference bit-for-bit (asserted inside) and the LHD
    engine must actually be faster.  The full frozen workload behind
    BENCH_throughput.json runs via check_bench_regression.py."""
    smoke = {"num_objects": 20_000, "num_requests": 100_000,
             "alpha": 1.5, "capacity": 10_000}
    result = run_once(
        benchmark, lambda: throughput.run_fast_comparison(
            workload=smoke, repeats=1))
    print()
    print(result.render())
    assert set(result.rows) == set(throughput.FAST_POLICIES)
    assert result.speedup("LHD") > 1.0
    benchmark.extra_info.update(
        {f"fast:{name}": row["speedup"]
         for name, row in result.rows.items()})


@pytest.mark.parametrize("policy_name", [
    "FIFO", "FIFO-Reinsertion", "2-bit-CLOCK", "SIEVE", "S3-FIFO",
    "QD-LP-FIFO", "LRU", "SLRU", "2Q", "ARC", "LIRS", "LeCaR",
    "CACHEUS", "LHD", "LRFU", "Hyperbolic",
])
def test_request_throughput(benchmark, policy_name, hot_keys):
    """Replay 20k hot requests; pytest-benchmark reports the per-run
    time, i.e. the end-to-end cost of the policy's request path."""

    def replay():
        policy = make(policy_name, _NUM_OBJECTS // 2)
        request = policy.request
        for key in hot_keys:
            request(key)
        return policy.stats.hit_ratio

    hit_ratio = benchmark(replay)
    assert hit_ratio > 0.3
