"""Cluster-scale synthetic workload: Zipf keys with Pareto sizes.

The single-node loadgen draws keys from a small Zipf universe; a
cluster experiment needs the shape production measurements actually
report (paper §4, and the open-source trace studies it cites): a
**Zipfian popularity law over millions of objects** with a heavy-tailed
(bounded Pareto) size distribution.  This module pre-materialises such
a workload deterministically so every policy/replication arm of an
experiment replays the identical request stream.

Keys are drawn lazily per request from the Zipf law but rendered as
stable strings (``k<rank>``), so a "millions of keys" universe costs
only the requests actually sampled, not the universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

#: Pareto size parameters measured on production CDN traces
#: (shape ~1.16 => infinite variance; scale in KB; capped to keep a
#: single object from dominating a shard).
PARETO_SHAPE = 1.16
PARETO_SCALE_KB = 1.0
PARETO_CAP_KB = 5000.0


@dataclass(frozen=True)
class ClusterWorkload:
    """An immutable, replayable request stream.

    ``keys[i]`` is the i-th requested key; ``sizes_kb[i]`` its object
    size.  Both arrays come from one seeded generator, so two workloads
    built with the same parameters are identical element-for-element.
    """

    keys: List[str]
    sizes_kb: "np.ndarray"
    universe: int
    alpha: float
    seed: int

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def unique_keys(self) -> int:
        return len(set(self.keys))

    def describe(self) -> str:
        return (f"{len(self.keys)} requests over a {self.universe}-key "
                f"universe (zipf alpha={self.alpha}, "
                f"{self.unique_keys} unique touched, seed={self.seed})")


def zipf_ranks(rng: "np.random.Generator", count: int, universe: int,
               alpha: float) -> "np.ndarray":
    """Sample *count* ranks in ``[1, universe]`` from a Zipf(alpha) law.

    Uses the inverse-CDF over the truncated harmonic weights when the
    universe is small enough to materialise, and rejection from
    numpy's unbounded Zipf sampler for multi-million-key universes
    (where the weight vector itself would dominate memory).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if universe < 1:
        raise ValueError(f"universe must be >= 1, got {universe}")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if universe <= 1_000_000:
        weights = 1.0 / np.arange(1, universe + 1, dtype=np.float64) ** alpha
        weights /= weights.sum()
        return rng.choice(universe, size=count, p=weights) + 1
    if alpha <= 1.0:
        raise ValueError(
            "universes beyond 1e6 keys need alpha > 1 "
            "(numpy's rejection sampler requires it)")
    ranks = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        draw = rng.zipf(alpha, size=count - filled)
        draw = draw[draw <= universe]
        ranks[filled:filled + len(draw)] = draw
        filled += len(draw)
    return ranks


def pareto_sizes_kb(rng: "np.random.Generator", count: int,
                    shape: float = PARETO_SHAPE,
                    scale_kb: float = PARETO_SCALE_KB,
                    cap_kb: float = PARETO_CAP_KB) -> "np.ndarray":
    """Bounded-Pareto object sizes in KB (heavy tail, capped)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    sizes = (rng.pareto(shape, size=count) + 1.0) * scale_kb
    return np.minimum(sizes, cap_kb)


def make_cluster_workload(requests: int, universe: int = 2_000_000,
                          alpha: float = 1.1,
                          seed: int = 42) -> ClusterWorkload:
    """Build a deterministic Zipf+Pareto request stream.

    The default two-million-key universe exercises the consistent-hash
    ring at realistic cardinality while the Zipf head keeps per-shard
    caches meaningfully warm.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    rng = np.random.default_rng(seed)
    ranks = zipf_ranks(rng, requests, universe, alpha)
    keys = [f"k{rank}" for rank in ranks]
    sizes = pareto_sizes_kb(rng, requests)
    return ClusterWorkload(keys=keys, sizes_kb=sizes, universe=universe,
                           alpha=alpha, seed=seed)


__all__ = [
    "PARETO_CAP_KB",
    "PARETO_SCALE_KB",
    "PARETO_SHAPE",
    "ClusterWorkload",
    "make_cluster_workload",
    "pareto_sizes_kb",
    "zipf_ranks",
]
