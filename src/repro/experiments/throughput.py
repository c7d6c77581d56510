"""Experiment X1 -- the throughput argument (paper §1/§2).

The paper's motivation for FIFO-based designs is operational: LRU
updates six pointers under a lock on *every hit*, while FIFO-family
algorithms touch at most one boolean.  Absolute numbers from a Python
simulator are not meaningful, but the *relative* cost of a cache hit
across policies is: FIFO-family hits should be measurably cheaper than
LRU-family hits, and dramatically cheaper than the complex state of
the art.

The workload is a hot, high-hit-ratio Zipf stream (cache sized to 50 %
of the objects) so the measurement is dominated by the hit path --
exactly the path the paper's scalability argument concerns.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.analysis.tables import render_table
from repro.experiments.common import write_result
from repro.policies.registry import REGISTRY, make
from repro.sim.fast.dispatch import FAST_POLICY_NAMES, engine_for
from repro.sim.fast.intern import intern_trace
from repro.traces.synthetic import zipf_trace

DEFAULT_POLICIES = [
    "FIFO", "FIFO-Reinsertion", "2-bit-CLOCK", "SIEVE", "S3-FIFO",
    "QD-LP-FIFO", "LRU", "SLRU", "ARC", "LIRS", "LeCaR", "CACHEUS", "LHD",
]

#: Policies measured by the fast-vs-reference comparison: every policy
#: with a vectorized engine, in registry order.
FAST_POLICIES = [name for name in REGISTRY if name in FAST_POLICY_NAMES]

#: The frozen benchmark workload behind ``BENCH_throughput.json``: a
#: skewed Zipf stream at a production-like operating point (~2 % miss
#: ratio), where the vectorized hit path dominates.  Changing any of
#: these invalidates the committed baseline.
BENCH_WORKLOAD = {
    "num_objects": 100_000,
    "num_requests": 500_000,
    "alpha": 1.5,
    "capacity": 50_000,
    "seed": 17,
}


@dataclass
class ThroughputResult:
    """Requests/second per policy on the hot workload."""

    ops_per_second: Dict[str, float]
    hit_ratio: Dict[str, float]
    promotions_per_request: Dict[str, float]
    num_requests: int

    def relative_to(self, reference: str = "LRU") -> Dict[str, float]:
        """Speedup of each policy relative to *reference*."""
        base = self.ops_per_second[reference]
        return {name: ops / base for name, ops in self.ops_per_second.items()}

    def render(self) -> str:
        relative = self.relative_to()
        body = [[name, ops / 1e3, relative[name], self.hit_ratio[name],
                 self.promotions_per_request[name]]
                for name, ops in sorted(self.ops_per_second.items(),
                                        key=lambda kv: -kv[1])]
        return render_table(
            ["policy", "k-requests/s", "vs LRU", "hit ratio",
             "promotions/req"],
            body,
            title=f"X1: simulated throughput on a hot Zipf workload "
                  f"({self.num_requests} requests)",
            precision=2)


def run(
    policies: Sequence[str] = tuple(DEFAULT_POLICIES),
    num_objects: int = 10_000,
    num_requests: int = 200_000,
    alpha: float = 1.1,
    seed: int = 13,
) -> ThroughputResult:
    """Measure request throughput per policy on one hot workload."""
    rng = np.random.default_rng(seed)
    keys: List[int] = zipf_trace(num_objects, num_requests, alpha, rng).tolist()
    capacity = num_objects // 2

    ops: Dict[str, float] = {}
    hit_ratio: Dict[str, float] = {}
    promotions: Dict[str, float] = {}
    for name in policies:
        policy = make(name, capacity)
        request = policy.request
        start = time.perf_counter()
        for key in keys:
            request(key)
        elapsed = time.perf_counter() - start
        ops[name] = num_requests / elapsed
        hit_ratio[name] = policy.stats.hit_ratio
        promotions[name] = policy.promotion_count / num_requests

    result = ThroughputResult(
        ops_per_second=ops, hit_ratio=hit_ratio,
        promotions_per_request=promotions, num_requests=num_requests)
    write_result("throughput", result.render())
    return result


@dataclass
class FastComparisonResult:
    """Fast-engine vs reference-loop throughput on the frozen workload."""

    workload: Dict[str, float]
    #: policy -> {reference_mps, fast_mps, speedup, miss_ratio}
    rows: Dict[str, Dict[str, float]]

    def speedup(self, policy: str) -> float:
        """Fast-engine speedup over the reference for *policy*."""
        return self.rows[policy]["speedup"]

    def render(self) -> str:
        body = [[name, row["reference_mps"], row["fast_mps"],
                 row["speedup"], row["miss_ratio"]]
                for name, row in self.rows.items()]
        return render_table(
            ["policy", "reference M req/s", "fast M req/s", "speedup",
             "miss ratio"],
            body,
            title=f"Fast-engine throughput vs reference "
                  f"(zipf alpha={self.workload['alpha']}, "
                  f"{self.workload['num_requests']} requests, "
                  f"capacity {self.workload['capacity']})",
            precision=2)

    def to_json(self) -> dict:
        return {"workload": self.workload, "policies": self.rows}


def run_fast_comparison(
    policies: Sequence[str] = tuple(FAST_POLICIES),
    workload: Optional[Dict[str, float]] = None,
    repeats: int = 3,
    json_path: Optional[Union[str, Path]] = None,
) -> FastComparisonResult:
    """Measure fast-engine speedup over the reference request loop.

    Replays one interned trace through each policy's vectorized engine
    (best of *repeats* runs) and through the reference ``request``
    loop (best of two -- it dominates the wall time).  Hit/miss counts
    are asserted identical between the paths, so this doubles as an
    end-to-end differential check.  With *json_path* the result is
    also written as the ``BENCH_throughput.json`` regression artifact.
    """
    spec = dict(BENCH_WORKLOAD)
    if workload:
        spec.update(workload)
    rng = np.random.default_rng(int(spec["seed"]))
    raw = zipf_trace(int(spec["num_objects"]), int(spec["num_requests"]),
                     float(spec["alpha"]), rng)
    keys = raw.tolist()
    capacity = int(spec["capacity"])
    interned = intern_trace(raw)

    rows: Dict[str, Dict[str, float]] = {}
    for name in policies:
        t_ref = float("inf")
        for _ in range(2):
            ref = make(name, capacity)
            request = ref.request
            start = time.perf_counter()
            for key in keys:
                request(key)
            t_ref = min(t_ref, time.perf_counter() - start)
        t_fast = float("inf")
        engine = None
        for _ in range(max(1, repeats)):
            engine = engine_for(make(name, capacity), interned.num_unique)
            if engine is None:
                break
            start = time.perf_counter()
            engine.replay(interned.ids)
            t_fast = min(t_fast, time.perf_counter() - start)
        if engine is None:
            continue
        if (engine.hits, engine.misses) != (ref.stats.hits,
                                            ref.stats.misses):
            raise AssertionError(
                f"fast engine diverged from reference for {name}: "
                f"{engine.hits}/{engine.misses} vs "
                f"{ref.stats.hits}/{ref.stats.misses}")
        n = len(keys)
        rows[name] = {
            "reference_mps": round(n / t_ref / 1e6, 4),
            "fast_mps": round(n / t_fast / 1e6, 4),
            "speedup": round(t_ref / t_fast, 3),
            "miss_ratio": round(engine.miss_ratio, 6),
        }

    result = FastComparisonResult(workload=spec, rows=rows)
    write_result("throughput_fast", result.render())
    if json_path is not None:
        Path(json_path).write_text(
            json.dumps(result.to_json(), indent=2) + "\n")
    return result


__all__ = [
    "ThroughputResult",
    "FastComparisonResult",
    "DEFAULT_POLICIES",
    "FAST_POLICIES",
    "BENCH_WORKLOAD",
    "run",
    "run_fast_comparison",
]
