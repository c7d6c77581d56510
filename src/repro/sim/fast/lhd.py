"""Fast LHD: one scalar core, bulk eviction sampling, and vectorized
hits for chunks that cannot evict.

:class:`LHDCore` holds the reference :class:`~repro.policies.lhd.LHD`
state on plain Python lists indexed by interned id -- per-key
``(last access, class)`` metadata, the swap-remove key list, the float
age histograms and the learned densities -- with the reference miss
path (sampled eviction, fresh admission) and the backward density
sweep.  It is the only engine copy of that logic: :class:`FastLHD`
drives it directly, and QD-LHD's main cache
(:mod:`repro.sim.fast.qdlhd`) subclasses it.

**Sampling in bulk.**  LHD evicts only when full, so every sample is a
run of ``randrange(capacity)`` draws.  :class:`RandrangeStream` makes
them from numpy's ``MT19937`` started at the policy's ``random.Random``
state, a block of raw words at a time: the top
``k = capacity.bit_length()`` bits of a word are CPython's
``getrandbits(k)``, and dropping values ``>= capacity`` is
``randrange``'s rejection loop, so the accepted values are the
reference's exact draw sequence.

**Two kinds of chunk.**  :class:`FastLHD` replays epoch-aligned chunks
(a chunk never straddles a reconfiguration; the sweep runs between
chunks) and picks per chunk from whether it can evict:

* A chunk whose candidates -- requests for keys not resident at its
  start -- fit in the free space cannot evict.  Its classified hits are
  counted vectorized: ages are clock differences to each key's previous
  access, buckets are exact ``np.frexp`` exponents, and the counts are
  added into the float histograms at the epoch edge by repeated
  ``+= 1.0`` (:func:`_add_ones`).  The candidates, admissions and
  re-accesses of keys admitted in the chunk, take the scalar path.
* Any other chunk runs the reference request loop on the core.

Both kinds can add to one histogram bucket in one epoch.  The mix is
exact because every bump is the same ``+= 1.0`` step, so their order
cannot change the result.

LHD never reorders a queue, so ``promotions == 0``.
"""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from repro.policies.lhd import (
    _CLASS_FRESH,
    _CLASS_REUSED,
    _NUM_BUCKETS,
    _age_bucket,
    _bucket_mid,
)
from repro.sim.fast.base import FastEngine

#: The last age bucket; older ages are capped into it.
_TOP = _NUM_BUCKETS - 1


def _add_ones(value: float, count: int) -> float:
    """*count* repeated IEEE additions of ``1.0``, in O(binades).

    Bit-identical to the unit-step loop: while the value sits inside a
    binade with ``ulp <= 1`` every ``+ 1.0`` is exact (the value stays
    a multiple of its own ulp and below the binade edge), so a block of
    steps collapses into one exact ``+ float(j)``.  Rounding can only
    happen on the single step that crosses the binade edge (or once
    ``ulp > 1``, beyond 2**53) -- those steps run literally.
    """
    while count:
        e = math.frexp(value)[1]
        if value <= 0.0 or e >= 53:
            value += 1.0
            count -= 1
            continue
        j = int(math.ldexp(1.0, e) - value)   # exact steps to the edge
        if j == 0:
            value += 1.0
            count -= 1
        elif j >= count:
            value += float(count)
            count = 0
        else:
            value += float(j)
            count -= j
    return value


class RandrangeStream:
    """``random.Random.randrange(n)`` draws for one fixed *n*, in bulk.

    Starts from *rng_state* (a ``random.Random.getstate()`` value) and
    returns exactly the values successive ``randrange(n)`` calls on
    that generator would, for ``1 <= n <= 2**32`` (one 32-bit word per
    attempt).  The source generator is not advanced.
    """

    #: Raw words drawn per refill.
    BLOCK = 8192

    def __init__(self, rng_state: tuple, n: int) -> None:
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"n must be in [1, 2**32], got {n}")
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


class LHDCore:
    """The reference LHD's state, miss path and density sweep.

    Scalar paths read and write plain lists, where ndarray item access
    would cost severalfold more; ``member`` mirrors residency as a
    numpy array for vectorized membership gathers.  The caller owns the
    logical clock and passes it in.
    """

    def __init__(self, capacity: int, num_unique: int, *,
                 sample_size: int, ewma_decay: float,
                 reconf_interval: int, rng_state: tuple) -> None:
        self.capacity = int(capacity)
        self.sample_size = int(sample_size)
        self.ewma_decay = ewma_decay
        self.reconf_interval = int(reconf_interval)
        self.next_reconf = self.reconf_interval
        self.mlast = [0] * num_unique
        self.mklass = [0] * num_unique
        #: Index into ``klist``, or -1.
        self.kpos = [-1] * num_unique
        self.member = np.zeros(num_unique, dtype=bool)
        self.klist: List[int] = []
        self.hit_hist = [[0.0] * _NUM_BUCKETS for _ in range(2)]
        self.ev_hist = [[0.0] * _NUM_BUCKETS for _ in range(2)]
        self.density = [
            [1.0 / (_bucket_mid(b) + 1.0) for b in range(_NUM_BUCKETS)]
            for _ in range(2)
        ]
        # Evictions happen only at a full cache, so every sample draws
        # from randrange(capacity); a cache that can hold every key
        # never evicts.
        self._draws = (RandrangeStream(rng_state, self.capacity)
                       if self.sample_size < self.capacity < num_unique
                       else None)

    def resident_mask(self, cids: np.ndarray) -> np.ndarray:
        return self.member[cids]

    def admit(self, k: int, clock: int) -> int:
        """The reference miss path for *k* at *clock*: evict if full,
        then admit *k* fresh.  Returns the victim, or -1."""
        klist = self.klist
        victim = self._evict(clock) if len(klist) >= self.capacity else -1
        self.mlast[k] = clock
        self.mklass[k] = _CLASS_FRESH
        self.kpos[k] = len(klist)
        self.member[k] = True
        klist.append(k)
        return victim

    def _evict(self, clock: int) -> int:
        klist = self.klist
        if len(klist) <= self.sample_size:
            sample: Iterable[int] = klist
        else:
            sample = map(klist.__getitem__,
                         self._draws.take(self.sample_size))
        # Inlined ``min(sample, key=hit_density)``: ``d < best`` keeps
        # the first minimum, like ``min``.  Every resident key was last
        # accessed before *clock*, so each age is at least 1.
        mlast = self.mlast
        mklass = self.mklass
        density = self.density
        best = math.inf
        victim = -1
        for k in sample:
            bucket = (clock - mlast[k] + 1).bit_length() - 1
            d = density[mklass[k]][bucket if bucket < _TOP else _TOP]
            if d < best:
                best = d
                victim = k
        self.ev_hist[mklass[victim]][
            _age_bucket(clock - mlast[victim])] += 1.0
        kpos = self.kpos
        idx = kpos[victim]
        kpos[victim] = -1
        self.member[victim] = False
        tail = klist.pop()
        if tail != victim:
            klist[idx] = tail
            kpos[tail] = idx
        return victim

    def reconfigure(self) -> None:
        """The reference backward density sweep, verbatim.

        The reference runs it when its clock reaches ``next_reconf``,
        which ticks by one per request, so the next is one interval on.
        """
        self.next_reconf += self.reconf_interval
        for klass in range(2):
            hits = self.hit_hist[klass]
            evictions = self.ev_hist[klass]
            density = self.density[klass]
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
                lifetime_above += events
                if events_above > 0.0 and lifetime_above > 0.0:
                    density[b] = hits_above / lifetime_above
            for b in range(_NUM_BUCKETS):
                hits[b] *= self.ewma_decay
                evictions[b] *= self.ewma_decay

    def contents(self) -> set:
        return set(np.flatnonzero(self.member).tolist())


class FastLHD(FastEngine):
    """Least Hit Density on :class:`LHDCore`, one chunk kind at a time."""

    name = "LHD"

    def __init__(self, capacity: int, num_unique: int, **params) -> None:
        super().__init__(capacity, num_unique)
        self.core = LHDCore(capacity, num_unique, **params)
        #: Hits counted vectorized in this epoch, per (class, bucket).
        self._pend_hits = np.zeros(2 * _NUM_BUCKETS, dtype=np.int64)

    def _begin_chunk(self, pos: int, hi: int) -> int:
        # The reference reconfigures while processing the request whose
        # clock reaches ``next_reconf`` (clock at index i is i + 1),
        # *before* recording that request's outcome -- so that request
        # must start a chunk and the sweep runs here, between chunks.
        core = self.core
        if pos + 1 >= core.next_reconf:
            self._materialise()
            core.reconfigure()
        boundary = core.next_reconf - 1
        return boundary if boundary < hi else hi

    def _materialise(self) -> None:
        """Add the epoch's vectorized hit counts into the histograms."""
        pending = self._pend_hits.tolist()
        for klass, row in enumerate(self.core.hit_hist):
            for b in range(_NUM_BUCKETS):
                count = pending[klass * _NUM_BUCKETS + b]
                if count:
                    row[b] = _add_ones(row[b], count)
        self._pend_hits[:] = 0

    def _run_chunk(self, cids: np.ndarray, out: np.ndarray) -> None:
        self._chunks += 1
        core = self.core
        known = core.resident_mask(cids)
        cand = np.flatnonzero(~known)
        self._last_cand = cand.size
        # Each candidate admits at most one key, so a chunk whose
        # candidates fit in the free space cannot evict.
        if len(core.klist) + cand.size > self.capacity:
            out[:] = False
            hits = self._walk(range(cids.size), cids.tolist())
        else:
            out[:] = known
            if cand.size < cids.size:
                self._count_hits(cids, known)
            hits = self._walk(cand.tolist(), cids[cand].tolist())
        if hits:
            out[hits] = True

    def _walk(self, positions: Iterable[int], keys: List[int]) -> List[int]:
        """The reference request loop over *keys* at chunk *positions*;
        returns the positions that hit."""
        core = self.core
        mlast = core.mlast
        mklass = core.mklass
        kpos = core.kpos
        hist = core.hit_hist
        admit = core.admit
        clock0 = self._base + 1
        hits = []
        for p, k in zip(positions, keys):
            clock = clock0 + p
            if kpos[k] >= 0:
                bucket = (clock - mlast[k] + 1).bit_length() - 1
                hist[mklass[k]][bucket if bucket < _TOP else _TOP] += 1.0
                mlast[k] = clock
                mklass[k] = _CLASS_REUSED
                hits.append(p)
            else:
                admit(k, clock)
        return hits

    def _count_hits(self, cids: np.ndarray, known: np.ndarray) -> None:
        """Vectorized accounting of a chunk's classified hits (keys
        resident at its start), valid only when the chunk cannot evict."""
        mlast = self.core.mlast
        mklass = self.core.mklass
        hidx = np.flatnonzero(known)
        # Key-major / position-minor order via one packed single-array
        # sort (positions fit in 17 bits: ``MAX_CHUNK`` is 2**16).
        shift = np.uint64(17)
        packed = (cids[hidx].astype(np.uint64) << shift) \
            | hidx.astype(np.uint64)
        packed.sort()
        sk = (packed >> shift).astype(np.int64)
        sp = (packed & np.uint64(0x1FFFF)).astype(np.int64)
        first = np.empty(sp.size, dtype=bool)
        first[0] = True
        np.not_equal(sk[1:], sk[:-1], out=first[1:])
        keys = sk[first].tolist()
        stamps = sp + (self._base + 1)
        # Each hit's age spans from the key's previous access: the
        # prior in-chunk hit, or the pre-chunk metadata for the first.
        prev = np.empty(sp.size, dtype=np.int64)
        prev[first] = list(map(mlast.__getitem__, keys))
        later = ~first[1:]
        prev[1:][later] = stamps[:-1][later]
        klass = np.full(sp.size, _CLASS_REUSED, dtype=np.int64)
        klass[first] = list(map(mklass.__getitem__, keys))
        # bucket = floor(log2(age + 1)): the frexp exponent is exact.
        bucket = np.frexp((stamps - prev + 1).astype(np.float64))[1] \
            .astype(np.int64) - 1
        np.minimum(bucket, _TOP, out=bucket)
        self._pend_hits += np.bincount(klass * _NUM_BUCKETS + bucket,
                                       minlength=2 * _NUM_BUCKETS)
        # Each key ends the chunk reused, stamped at its last hit.
        last = np.empty(sp.size, dtype=bool)
        last[-1] = True
        np.copyto(last[:-1], first[1:])
        for k, stamp in zip(keys, stamps[last].tolist()):
            mlast[k] = stamp
            mklass[k] = _CLASS_REUSED

    def contents(self) -> set:
        return self.core.contents()


__all__ = ["FastLHD", "LHDCore", "RandrangeStream"]
