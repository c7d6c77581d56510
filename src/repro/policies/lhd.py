"""LHD: Least Hit Density eviction (Beckmann, Chen & Cidon, NSDI 2018).

LHD ranks objects by *hit density*: the expected number of future hits
per unit of cache space-time the object will consume.  The policy
learns, from observed hit and eviction ages, the age-conditional
probability of a future hit and the expected remaining lifetime, and
evicts (by random sampling, as in the original) the object whose hit
density is lowest.

Faithful-in-spirit reimplementation (see DESIGN.md): ages are coarsened
into logarithmic buckets, statistics are aged with an EWMA at periodic
reconfigurations, and objects are partitioned into two classes --
never-hit ("fresh") and reused -- standing in for the original's
app/hit-count classes.  The decision rule (sampled eviction by minimum
learned hit density) matches the published algorithm.

The paper uses LHD both as one of the five QD-enhanced state-of-the-art
algorithms (Fig. 5) and in the resource-consumption study (Fig. 3),
where LHD spends visibly less space-time on unpopular objects than LRU.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.core.base import EvictionPolicy, Key

_NUM_BUCKETS = 32
_CLASS_FRESH = 0
_CLASS_REUSED = 1


def _age_bucket(age: int) -> int:
    """Logarithmic age coarsening: bucket(a) = floor(log2(a + 1)).

    Computed on integers (the bit length), which is exact at every age;
    a float ``log2`` rounds ``log2(2**k - 1)`` up to ``k`` from k = 49.
    """
    if age <= 0:
        return 0
    return min((age + 1).bit_length() - 1, _NUM_BUCKETS - 1)


def _bucket_mid(bucket: int) -> float:
    """Representative (midpoint) age of a bucket."""
    lo = (1 << bucket) - 1
    hi = (1 << (bucket + 1)) - 2
    return (lo + hi) / 2.0


class LHD(EvictionPolicy):
    """Sampled least-hit-density eviction with learned age statistics."""

    name = "LHD"

    def __init__(
        self,
        capacity: int,
        sample_size: int = 32,
        ewma_decay: float = 0.9,
        seed: int = 0,
    ) -> None:
        super().__init__(capacity)
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        self.sample_size = sample_size
        self.ewma_decay = ewma_decay
        self._rng = random.Random(seed)
        self._clock = 0
        self._reconf_interval = max(1000, capacity)
        self._next_reconf = self._reconf_interval

        #: key -> (last_access_time, class)
        self._meta: Dict[Key, Tuple[int, int]] = {}
        self._keys: List[Key] = []
        self._pos: Dict[Key, int] = {}

        # Per-class age histograms of hits and evictions.
        self._hits = [[0.0] * _NUM_BUCKETS for _ in range(2)]
        self._evictions = [[0.0] * _NUM_BUCKETS for _ in range(2)]
        # Learned density tables, seeded with an LRU-like prior
        # (younger objects denser) so cold-start decisions are sane.
        self._density = [
            [1.0 / (_bucket_mid(b) + 1.0) for b in range(_NUM_BUCKETS)]
            for _ in range(2)
        ]

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        self._clock += 1
        if self._clock >= self._next_reconf:
            self._reconfigure()
        meta = self._meta.get(key)
        if meta is not None:
            last, klass = meta
            bucket = _age_bucket(self._clock - last)
            self._hits[klass][bucket] += 1.0
            self._meta[key] = (self._clock, _CLASS_REUSED)
            self.stats.hits += 1
            if self._listeners:
                self._notify_hit(key)
            return True

        self.stats.misses += 1
        if len(self._keys) >= self.capacity:
            self._evict_one()
        self._meta[key] = (self._clock, _CLASS_FRESH)
        self._pos[key] = len(self._keys)
        self._keys.append(key)
        if self._listeners:
            self._notify_admit(key)
        return False

    # ------------------------------------------------------------------
    def _hit_density(self, key: Key) -> float:
        last, klass = self._meta[key]
        bucket = _age_bucket(self._clock - last)
        return self._density[klass][bucket]

    def _evict_one(self) -> None:
        n = len(self._keys)
        if n <= self.sample_size:
            sample = self._keys
        else:
            sample = [self._keys[self._rng.randrange(n)]
                      for _ in range(self.sample_size)]
        victim = min(sample, key=self._hit_density)
        last, klass = self._meta[victim]
        self._evictions[klass][_age_bucket(self._clock - last)] += 1.0
        self._remove(victim)
        if self._listeners:
            self._notify_evict(victim)

    def _remove(self, key: Key) -> None:
        idx = self._pos.pop(key)
        last = self._keys.pop()
        if last is not key:
            self._keys[idx] = last
            self._pos[last] = idx
        del self._meta[key]

    def _reconfigure(self) -> None:
        """Recompute hit-density tables and age the statistics.

        Backward sweep: for an object currently at age bucket *b*, its
        expected future hits are proportional to the hits observed at
        ages >= b, and its expected remaining space-time integrates the
        age gap to each of those future events:

            density(b) = sum_{b' >= b} hits[b']
                       / sum_{b' >= b} (mid(b') - mid(b) + 1) * events[b']
        """
        self._next_reconf = self._clock + self._reconf_interval
        for klass in range(2):
            hits = self._hits[klass]
            evictions = self._evictions[klass]
            density = self._density[klass]
            hits_above = 0.0
            events_above = 0.0
            lifetime_above = 0.0
            for b in range(_NUM_BUCKETS - 1, -1, -1):
                events = hits[b] + evictions[b]
                if b < _NUM_BUCKETS - 1:
                    gap = _bucket_mid(b + 1) - _bucket_mid(b)
                    lifetime_above += gap * events_above
                hits_above += hits[b]
                events_above += events
                lifetime_above += events  # each in-bucket event costs ~1
                if events_above > 0.0 and lifetime_above > 0.0:
                    density[b] = hits_above / lifetime_above
                # else: keep the previous (or prior) density for b.
            # Age the histograms so the tables track workload drift.
            for b in range(_NUM_BUCKETS):
                hits[b] *= self.ewma_decay
                evictions[b] *= self.ewma_decay

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._meta

    def __len__(self) -> int:
        return len(self._keys)


__all__ = ["LHD"]
