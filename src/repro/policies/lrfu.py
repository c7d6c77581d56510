"""LRFU (Lee et al., IEEE ToC 2001): a spectrum between LRU and LFU.

Every object carries a *Combined Recency and Frequency* (CRF) value

    C(t) = sum over past accesses t_i of (1/2)^(lambda * (t - t_i)),

updated incrementally on each access; the object with the smallest CRF
is evicted.  ``lambda_ -> 0`` degenerates to LFU, large ``lambda_`` to
LRU.

Implementation note: because all CRFs decay by the same factor, the
eviction order at any instant equals the order of
``log2(C(t_last)) + lambda * t_last`` -- a time-independent weight.  We
store that weight and keep a lazily-invalidated min-heap over it,
avoiding both per-request re-decay and numeric overflow.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Tuple

from repro.core.base import EvictionPolicy, Key


class LRFU(EvictionPolicy):
    """The LRFU policy with decay parameter ``lambda_``."""

    name = "LRFU"

    def __init__(self, capacity: int, lambda_: float = 0.001) -> None:
        super().__init__(capacity)
        if lambda_ < 0:
            raise ValueError(f"lambda_ must be >= 0, got {lambda_}")
        self.lambda_ = lambda_
        self._clock = 0
        #: key -> current weight (log2 CRF normalised to t=0)
        self._weight: Dict[Key, float] = {}
        #: lazy min-heap of (weight, key)
        self._heap: List[Tuple[float, Key]] = []

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        self._clock += 1
        t = self._clock
        weight = self._weight.get(key)
        if weight is not None:
            # CRF now = 2^(weight - lambda*t); new CRF = 1 + that.
            crf_now = 2.0 ** (weight - self.lambda_ * t)
            new_weight = math.log2(1.0 + crf_now) + self.lambda_ * t
            self._weight[key] = new_weight
            heapq.heappush(self._heap, (new_weight, key))
            self.stats.promotions += 1
            self._maybe_compact()
            self.stats.hits += 1
            if self._listeners:
                if self._on_promote:
                    self._notify_promote(key)
                if self._on_hit:
                    self._notify_hit(key)
            return True

        self.stats.misses += 1
        if len(self._weight) >= self.capacity:
            self._evict_one()
        new_weight = self.lambda_ * t  # log2(1) + lambda*t
        self._weight[key] = new_weight
        heapq.heappush(self._heap, (new_weight, key))
        self._maybe_compact()
        if self._on_admit:
            self._notify_admit(key)
        return False

    def _evict_one(self) -> None:
        while True:
            weight, key = heapq.heappop(self._heap)
            if self._weight.get(key) == weight:
                del self._weight[key]
                if self._on_evict:
                    self._notify_evict(key)
                return

    def _maybe_compact(self) -> None:
        """Rebuild the heap when stale entries dominate it."""
        if len(self._heap) > 8 * max(len(self._weight), 16):
            self._heap = [
                (weight, key) for key, weight in self._weight.items()
            ]
            heapq.heapify(self._heap)

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._weight

    def __len__(self) -> int:
        return len(self._weight)


__all__ = ["LRFU"]
