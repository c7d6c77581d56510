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

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import EvictionPolicy, Key

_NUM_BUCKETS = 32
#: The last age bucket; older ages are capped into it.
_TOP = _NUM_BUCKETS - 1
#: Entries in a scan row: one per bit length an ``age + 1`` below
#: 2**64 can have.
_ROW_LEN = 65
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


def sweep_densities(hits: Sequence[List[float]],
                    evictions: Sequence[List[float]],
                    density: Sequence[List[float]],
                    ewma_decay: float) -> None:
    """Recompute each class's hit-density table and age its histograms.

    Backward sweep: for an object currently at age bucket *b*, its
    expected future hits are proportional to the hits observed at
    ages >= b, and its expected remaining space-time integrates the
    age gap to each of those future events:

        density(b) = sum_{b' >= b} hits[b']
                   / sum_{b' >= b} (mid(b') - mid(b) + 1) * events[b']

    Updates *density* in place, then multiplies every histogram bucket
    by *ewma_decay* so the tables track workload drift.
    """
    for klass_hits, klass_evictions, klass_density in zip(
            hits, evictions, density):
        hits_above = 0.0
        events_above = 0.0
        lifetime_above = 0.0
        for b in range(_NUM_BUCKETS - 1, -1, -1):
            events = klass_hits[b] + klass_evictions[b]
            if b < _NUM_BUCKETS - 1:
                gap = _bucket_mid(b + 1) - _bucket_mid(b)
                lifetime_above += gap * events_above
            hits_above += klass_hits[b]
            events_above += events
            lifetime_above += events  # each in-bucket event costs ~1
            if events_above > 0.0 and lifetime_above > 0.0:
                klass_density[b] = hits_above / lifetime_above
            # else: keep the previous (or prior) density for b.
        for b in range(_NUM_BUCKETS):
            klass_hits[b] *= ewma_decay
            klass_evictions[b] *= ewma_decay


def scan_rows(density: Sequence[List[float]]) -> List[List[float]]:
    """Each class's density row as the eviction scan reads it.

    The scan indexes a row by ``(age + 1).bit_length()``, which is
    ``_age_bucket(age) + 1`` below the cap: entry ``b + 1`` holds bucket
    *b*, every entry past the top repeats the top bucket (the cap at
    bucket 31), and entry 0 repeats bucket 0.  Rebuild the rows after
    every :func:`sweep_densities`; they cover ages below ``2**64 - 1``.
    """
    pad = _ROW_LEN - 1 - _NUM_BUCKETS
    return [[row[0], *row] + [row[_TOP]] * pad for row in density]


class RandrangeStream:
    """``random.Random.randrange(n)`` draws for one fixed *n*, in bulk.

    Starts from *rng_state* (a ``random.Random.getstate()`` value) and
    returns exactly the values successive ``randrange(n)`` calls on
    that generator would, for ``1 <= n < 2**32``.  In that range
    ``randrange`` takes ``getrandbits(k)`` with ``k = n.bit_length()
    <= 32``, which is the top *k* bits of one 32-bit Mersenne Twister
    word, and rejects values ``>= n``; the stream draws the same words
    from numpy's ``MT19937`` a block at a time and filters them the
    same way.  The source generator is not advanced.
    """

    #: Raw words drawn per refill.
    BLOCK = 8192

    def __init__(self, rng_state: tuple, n: int) -> None:
        if not 1 <= n < 1 << 32:
            raise ValueError(f"n must be in [1, 2**32), got {n}")
        words = rng_state[1]   # 624 state words, then the position
        self._bitgen = np.random.MT19937()
        self._bitgen.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(words[:-1], dtype=np.uint32),
                      "pos": words[-1]},
        }
        self._n = n
        self._shift = np.uint64(32 - n.bit_length())
        self._buf: List[int] = []
        self._i = 0

    def take(self, count: int) -> List[int]:
        """The next *count* draws."""
        i = self._i
        j = i + count
        if j > len(self._buf):
            buf = self._buf[i:]
            while len(buf) < count:
                draws = self._bitgen.random_raw(self.BLOCK) >> self._shift
                buf += draws[draws < self._n].tolist()
            self._buf = buf
            i, j = 0, count
        self._i = j
        return self._buf[i:j]


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
        #: Eviction sampler, built from ``_rng`` at the first eviction.
        self._draws: Optional[RandrangeStream] = None
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
        self._rows = scan_rows(self._density)

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
            if self._on_hit:
                self._notify_hit(key)
            return True

        self.stats.misses += 1
        if len(self._keys) >= self.capacity:
            self._evict_one()
        self._meta[key] = (self._clock, _CLASS_FRESH)
        self._pos[key] = len(self._keys)
        self._keys.append(key)
        if self._on_admit:
            self._notify_admit(key)
        return False

    # ------------------------------------------------------------------
    def _evict_one(self) -> None:
        keys = self._keys
        if len(keys) <= self.sample_size:
            sample = keys
        else:
            draws = self._draws
            if draws is None:
                # Evictions happen only at a full cache, so every draw
                # is randrange(capacity), and nothing else uses _rng.
                draws = self._draws = RandrangeStream(
                    self._rng.getstate(), len(keys))
            sample = map(keys.__getitem__, draws.take(self.sample_size))
        # Inlined ``min(sample, key=hit density)``: ``d < best`` keeps
        # the first minimum, like ``min``.  A scan row is indexed by
        # ``(age + 1).bit_length()``, so the loop takes no log or cap.
        meta = self._meta
        rows = self._rows
        clock = self._clock
        after = clock + 1
        best = math.inf
        victim = None
        for key in sample:
            last, klass = meta[key]
            d = rows[klass][(after - last).bit_length()]
            if d < best:
                best = d
                victim = key
        last, klass = meta[victim]
        self._evictions[klass][_age_bucket(clock - last)] += 1.0
        self._remove(victim)
        if self._on_evict:
            self._notify_evict(victim)

    def _remove(self, key: Key) -> None:
        idx = self._pos.pop(key)
        last = self._keys.pop()
        if last is not key:
            self._keys[idx] = last
            self._pos[last] = idx
        del self._meta[key]

    def _reconfigure(self) -> None:
        """Recompute hit-density tables and age the statistics."""
        self._next_reconf = self._clock + self._reconf_interval
        sweep_densities(self._hits, self._evictions, self._density,
                        self.ewma_decay)
        self._rows = scan_rows(self._density)

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._meta

    def __len__(self) -> int:
        return len(self._keys)


__all__ = ["LHD", "RandrangeStream", "scan_rows", "sweep_densities"]
