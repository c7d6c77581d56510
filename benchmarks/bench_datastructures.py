"""Microbenchmarks for the hot-path data structures.

These are the operations a production cache executes millions of
times per second; the timing table documents the per-operation costs
underlying the X1 policy comparison (ghost add == QD's demotion
bookkeeping; sketch increment == TinyLFU's per-request work).
"""

import numpy as np
import pytest

from repro.core.ghost import GhostQueue
from repro.utils.sketch import CountMinSketch

_N = 10_000


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(1)
    return rng.integers(0, _N, 50_000).tolist()


def test_ghost_queue_add(benchmark, keys):
    def run():
        ghost = GhostQueue(_N // 2)
        for key in keys:
            ghost.add(key)
        return len(ghost)

    assert benchmark(run) == _N // 2


def test_sketch_increment_estimate(benchmark, keys):
    def run():
        sketch = CountMinSketch(_N)
        for key in keys:
            sketch.increment(key)
        return sum(sketch.estimate(k) for k in range(100))

    assert benchmark(run) >= 0


def test_reuse_distance_pass(benchmark, keys):
    """The O(N log N) Mattson pass behind the exact LRU MRC."""
    from repro.analysis.mrc import reuse_distances

    distances = benchmark(reuse_distances, keys)
    assert len(distances) == len(keys)
