"""Fast LHD: the reference algorithm on id-indexed lists, with
vectorized hits for chunks that cannot evict.

:class:`FastLHD` holds the reference :class:`~repro.policies.lhd.LHD`
state on plain Python lists indexed by interned id -- per-key
``(last access, class)`` metadata, the swap-remove key list, the float
age histograms and the learned densities.  It shares the reference's
eviction sampler (:class:`~repro.policies.lhd.RandrangeStream`, started
from the policy's ``random.Random`` state), its density sweep
(:func:`~repro.policies.lhd.sweep_densities`) and the padded density
rows its eviction scan reads (:func:`~repro.policies.lhd.scan_rows`).

**Chunks.**  The trace replays in epoch-aligned chunks (a chunk never
straddles a reconfiguration; the sweep runs between chunks), and each
chunk picks its path from whether it can evict:

* A chunk whose candidates -- requests for keys not resident at its
  start -- fit in the free space cannot evict.  Its classified hits are
  counted vectorized: ages are clock differences to each key's previous
  access, buckets are exact ``np.frexp`` exponents, and the counts are
  added into the float histograms at the epoch edge by repeated
  ``+= 1.0`` (:func:`_add_ones`).  The candidates, admissions and
  re-accesses of keys admitted in the chunk, take the scalar path.
* Any other chunk runs the reference request loop.

Both kinds can add to one histogram bucket in one epoch.  The mix is
exact because every bump is the same ``+= 1.0`` step, so their order
cannot change the result.  Chunks grow while they are mostly hits (the
vector setup amortizes over more requests) and shrink back when
candidates dominate.

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
    _TOP,
    RandrangeStream,
    _age_bucket,
    _bucket_mid,
    scan_rows,
    sweep_densities,
)


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


class FastLHD:
    """Least Hit Density over interned ids, one chunk kind at a time.

    Scalar paths read and write plain lists, where ndarray item access
    would cost severalfold more; ``member`` mirrors residency as a
    numpy array for vectorized membership gathers.
    """

    #: Initial requests per chunk.
    CHUNK = 4096
    #: Ceiling for chunk growth.  Positions are packed into 17 bits for
    #: the vectorized hit sort, so a chunk must stay below 2**17.
    MAX_CHUNK = 65536

    name = "LHD"

    def __init__(self, capacity: int, num_unique: int, *,
                 sample_size: int, ewma_decay: float,
                 reconf_interval: int, rng_state: tuple) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if num_unique < 1:
            raise ValueError(f"num_unique must be >= 1, got {num_unique}")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.promotions = 0
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
        self.rows = scan_rows(self.density)
        # Evictions happen only at a full cache, so every sample draws
        # from randrange(capacity); a cache that can hold every key
        # never evicts.
        self._draws = (RandrangeStream(rng_state, self.capacity)
                       if self.sample_size < self.capacity < num_unique
                       else None)
        #: Hits counted vectorized in this epoch, per (class, bucket).
        self._pend_hits = np.zeros(2 * _NUM_BUCKETS, dtype=np.int64)
        self._base = 0
        self._replayed = False

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def replay(self, ids: np.ndarray, warmup: int = 0) -> np.ndarray:
        """Replay interned *ids*; returns the per-request hit mask.

        ``hits``/``misses`` count requests from index *warmup* on,
        mirroring ``simulate`` with ``SimOptions(warmup=...)``.  An
        engine instance replays exactly one sequence.
        """
        if self._replayed:
            raise RuntimeError("fast engines are single-use; build a new "
                               "engine per replay")
        self._replayed = True
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        n = ids.size
        if warmup < 0 or warmup > n:
            raise ValueError(f"warmup must be in [0, {n}], got {warmup}")
        mask = np.empty(n, dtype=np.bool_)
        chunk = self.CHUNK
        pos = 0
        while pos < n:
            hi = self._begin_chunk(pos, min(pos + chunk, n))
            self._base = pos
            cand = self._run_chunk(ids[pos:hi], mask[pos:hi])
            clen = hi - pos
            if cand * 16 < clen:
                chunk = min(chunk * 2, self.MAX_CHUNK)
            elif cand * 4 > clen:
                chunk = max(chunk // 2, self.CHUNK)
            pos = hi
        self.hits = int(np.count_nonzero(mask[warmup:]))
        self.misses = n - warmup - self.hits
        return mask

    @property
    def requests(self) -> int:
        """Requests counted (post-warmup)."""
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Fraction of counted requests that missed."""
        total = self.requests
        return self.misses / total if total else 0.0

    def contents(self) -> set:
        """Resident interned ids (for differential final-state tests)."""
        return set(np.flatnonzero(self.member).tolist())

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    def _begin_chunk(self, pos: int, hi: int) -> int:
        """Run the reconfiguration due at *pos*, if any, and return the
        chunk end, capped at the next epoch boundary."""
        # The reference reconfigures while processing the request whose
        # clock reaches ``next_reconf`` (clock at index i is i + 1),
        # *before* recording that request's outcome -- so that request
        # must start a chunk and the sweep runs here, between chunks.
        if pos + 1 >= self.next_reconf:
            self._materialise()
            self.next_reconf += self.reconf_interval
            sweep_densities(self.hit_hist, self.ev_hist, self.density,
                            self.ewma_decay)
            self.rows = scan_rows(self.density)
        boundary = self.next_reconf - 1
        return boundary if boundary < hi else hi

    def _materialise(self) -> None:
        """Add the epoch's vectorized hit counts into the histograms."""
        pending = self._pend_hits.tolist()
        for klass, row in enumerate(self.hit_hist):
            for b in range(_NUM_BUCKETS):
                count = pending[klass * _NUM_BUCKETS + b]
                if count:
                    row[b] = _add_ones(row[b], count)
        self._pend_hits[:] = 0

    # ------------------------------------------------------------------
    # Chunks
    # ------------------------------------------------------------------
    def _run_chunk(self, cids: np.ndarray, out: np.ndarray) -> int:
        """Replay one chunk into *out*; returns its candidate count."""
        known = self.member[cids]
        cand = np.flatnonzero(~known)
        # Each candidate admits at most one key, so a chunk whose
        # candidates fit in the free space cannot evict.
        if len(self.klist) + cand.size > self.capacity:
            out[:] = False
            hits = self._walk(range(cids.size), cids.tolist())
        else:
            out[:] = known
            if cand.size < cids.size:
                self._count_hits(cids, known)
            hits = self._walk(cand.tolist(), cids[cand].tolist())
        if hits:
            out[hits] = True
        return cand.size

    def _walk(self, positions: Iterable[int], keys: List[int]) -> List[int]:
        """The reference request loop over *keys* at chunk *positions*;
        returns the positions that hit."""
        mlast = self.mlast
        mklass = self.mklass
        kpos = self.kpos
        hist = self.hit_hist
        admit = self._admit
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
        mlast = self.mlast
        mklass = self.mklass
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

    # ------------------------------------------------------------------
    # Miss path
    # ------------------------------------------------------------------
    def _admit(self, k: int, clock: int) -> None:
        """The reference miss path for *k* at *clock*: evict if full,
        then admit *k* fresh."""
        klist = self.klist
        if len(klist) >= self.capacity:
            self._evict(clock)
        self.mlast[k] = clock
        self.mklass[k] = _CLASS_FRESH
        self.kpos[k] = len(klist)
        self.member[k] = True
        klist.append(k)

    def _evict(self, clock: int) -> None:
        klist = self.klist
        if len(klist) <= self.sample_size:
            sample: Iterable[int] = klist
        else:
            sample = map(klist.__getitem__,
                         self._draws.take(self.sample_size))
        # The reference's scan: ``d < best`` keeps the first minimum.
        mlast = self.mlast
        mklass = self.mklass
        rows = self.rows
        after = clock + 1
        best = math.inf
        victim = -1
        for k in sample:
            d = rows[mklass[k]][(after - mlast[k]).bit_length()]
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


__all__ = ["FastLHD"]
