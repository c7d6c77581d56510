"""Shared chunked-replay skeleton for the fast engines.

:meth:`FastEngine.replay` runs the trace in chunks of ``CHUNK``
requests.  LHD overrides the per-chunk step (it vectorizes only chunks
that cannot evict, so it never repairs); QD-LHD, the other engine, uses
the full repair walk below.  Per chunk:

1. **Classify** membership for the whole chunk with one vectorized
   gather against the engine's id-indexed state (``slot_of[ids]``).
   Positions whose key was resident *before* the chunk are classified
   hits; the rest are *candidates*.
2. **Apply hit effects vectorized.**  QD-LHD sets the probation
   visited bits of its classified hits up front (``visited[slots] = 1``
   is idempotent) and queues their main-cache effects as events the
   walk fires in order.
3. **Walk the candidates in order with scalar code**, performing the
   exact reference insert/evict logic.  Candidates can resolve to hits
   (the key was inserted earlier in the same chunk); evictions run the
   real algorithm.
4. **Correct optimism per key as the walk observes it.**  The
   vectorized hit effects assumed every classified hit stays resident
   for the whole chunk.  Whenever the walk examines a key whose last
   classified hit lies *after* the current walk position (``_hitpos``),
   the engine looks up the key's in-chunk hit positions (a lazily
   built sorted index, O(log) per lookup) and decides from the hits
   already due whether the key was visited by then.  An **evicted**
   key's next occurrence -- a classified "hit" that the reference
   would miss -- is *injected* into the candidate stream via
   :meth:`_inject`.  The walk later re-admits the key at that position
   exactly as the reference does (``_deferred`` carries the count of
   hits after the re-admission so their pre-applied effect lands on
   the new slot), and the position is recorded in ``_demoted`` so the
   final hit mask reports it as a miss.

   Hits that already happened before the walk position need no
   correction: their pre-applied effect is order-equivalent to the
   reference timeline.

Every chunk commits -- there is no rollback and no abort path.  A
conflict costs a couple of binary searches, so adversarial traces
(e.g. loops that evict every key before its next access) degrade
smoothly toward scalar-walk speed instead of collapsing.

The hit/miss mask is exact per position, so ``warmup`` is applied by
counting statistics from the warmup index; promotion events carry
their global position and are counted only past warmup, matching the
reference's ``stats.reset()`` semantics.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Iterator, List, Optional, Tuple

import numpy as np

class FastEngine:
    """Base class: chunk loop, per-key conflict repair, stats."""

    #: Initial requests per chunk for the optimistic engines.
    CHUNK = 4096
    #: Ceiling for adaptive chunk growth.  Chunks double while the
    #: candidate fraction stays low (vector setup amortizes over more
    #: requests) and halve when misses dominate (bounds wasted
    #: classification work on adversarial traces).
    MAX_CHUNK = 65536

    name = "fast"

    def __init__(self, capacity: int, num_unique: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if num_unique < 1:
            raise ValueError(f"num_unique must be >= 1, got {num_unique}")
        self.capacity = int(capacity)
        self.num_unique = int(num_unique)
        self.hits = 0
        self.misses = 0
        self.promotions = 0
        #: Each key's last classified-hit position in the current
        #: chunk, or -1: a sweep examining the key at walk position p
        #: must correct for hits it pre-applied iff this exceeds p.
        self._hitpos = np.full(num_unique, -1, dtype=np.int64)
        self._chunks = 0
        self._conflicts = 0
        self._last_cand = 0
        self._last_conflict = False
        self._base = 0
        self._warmup = 0
        self._replayed = False
        # Chunk context for conflict handling.
        self._ck_cids: Optional[np.ndarray] = None
        self._ck_hidx: Optional[np.ndarray] = None
        self._occ_keys: Optional[np.ndarray] = None   # lazy sorted index
        self._occ_pos: Optional[np.ndarray] = None
        self._occ_cache = {}   # key -> sorted chunk hit positions
        self._injected: List[Tuple[int, int]] = []
        self._demoted: List[int] = []
        self._deferred = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def replay(self, ids: np.ndarray, warmup: int = 0) -> np.ndarray:
        """Replay interned *ids*; returns the per-request hit mask.

        ``hits``/``misses``/``promotions`` count requests from index
        *warmup* on, mirroring ``simulate(..., warmup=...)``.  An engine
        instance replays exactly one sequence.
        """
        if self._replayed:
            raise RuntimeError("fast engines are single-use; build a new "
                               "engine per replay")
        self._replayed = True
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        n = ids.size
        if warmup < 0 or warmup > n:
            raise ValueError(f"warmup must be in [0, {n}], got {warmup}")
        self._warmup = warmup
        mask = np.empty(n, dtype=np.bool_)
        chunk = floor = self.CHUNK
        ceil = self.MAX_CHUNK
        pos = 0
        while pos < n:
            hi = self._begin_chunk(pos, min(pos + chunk, n))
            self._base = pos
            self._last_cand = 0
            self._last_conflict = False
            self._run_chunk(ids[pos:hi], mask[pos:hi])
            clen = hi - pos
            if self._last_conflict:
                # Conflict-repair cost scales with chunk size (the hit
                # index covers the whole chunk); back off first.
                chunk = max(chunk // 2, floor)
            elif self._last_cand * 16 < clen:
                if chunk < ceil:
                    chunk = min(chunk * 2, ceil)
            elif self._last_cand * 4 > clen and chunk > floor:
                chunk = max(chunk // 2, floor)
            pos = hi
        observed = n - warmup
        self.hits = int(np.count_nonzero(mask[warmup:]))
        self.misses = observed - self.hits
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

    # ------------------------------------------------------------------
    # Chunk machinery
    # ------------------------------------------------------------------
    def _begin_chunk(self, pos: int, hi: int) -> int:
        """Pre-chunk hook: may run epoch work due at *pos* (e.g. LHD's
        periodic reconfiguration) and cap *hi* so the chunk stops short
        of the next epoch boundary.  Must return a value in
        ``(pos, hi]``."""
        return hi

    def _run_chunk(self, cids: np.ndarray, out: np.ndarray) -> None:
        self._chunks += 1
        known, aux = self._classify(cids)
        cand = np.nonzero(~known)[0]
        self._last_cand = cand.size
        if cand.size == 0:
            # Pure-hit chunk: no evictions can happen, so the
            # vectorized hit effects cannot be violated.
            self._pre_apply(cids, known, aux)
            self._post_apply(cids, known, aux)
            out[:] = True
            return
        hidx = np.nonzero(known)[0]
        # Fancy assignment with duplicate indices keeps the last write,
        # so ascending order records each key's last hit -- far cheaper
        # than ufunc.at.
        self._hitpos[cids[hidx]] = hidx
        self._ck_cids = cids
        self._ck_hidx = hidx
        self._occ_keys = None
        self._occ_pos = None
        self._occ_cache.clear()
        self._injected.clear()
        self._demoted.clear()
        self._deferred.clear()
        self._pre_apply(cids, known, aux)
        extra = self._scalar_pass(cand.tolist(), cids[cand].tolist())
        self._post_apply(cids, known, aux)
        out[:] = known
        if extra:
            out[np.asarray(extra, dtype=np.int64)] = True
        if self._demoted:
            out[np.asarray(self._demoted, dtype=np.int64)] = False
        self._hitpos[cids] = -1

    def _stream(self, positions: List[int],
                keys: List[int]) -> Iterator[Tuple[int, int]]:
        """The candidate walk order: originals merged with injections.

        Injected positions always lie ahead of the walk, so a plain
        two-way merge between the original list and the injection heap
        yields every candidate in strictly increasing position order.
        """
        inj = self._injected
        i = 0
        n = len(positions)
        while True:
            if inj and (i >= n or inj[0][0] < positions[i]):
                yield heapq.heappop(inj)
            elif i < n:
                yield positions[i], keys[i]
                i += 1
            else:
                return

    # ------------------------------------------------------------------
    # Conflict helpers (all O(log chunk) per call)
    # ------------------------------------------------------------------
    def _occ_index(self):
        """Sorted (key, position) view of the chunk's classified hits.

        Built by packing each (key, position) pair into one ``uint64``
        and sorting that -- positions fit in 17 bits (``MAX_CHUNK`` is
        ``2**16``), so a plain single-array sort gives exactly the
        stable key-major / position-minor order an ``argsort`` over the
        keys would, at a fraction of the cost."""
        if self._occ_keys is None:
            self._conflicts += 1
            self._last_conflict = True
            hidx = self._ck_hidx
            shift = np.uint64(17)
            packed = (self._ck_cids[hidx].astype(np.uint64) << shift) \
                | hidx.astype(np.uint64)
            packed.sort()
            self._occ_keys = (packed >> shift).astype(np.int64)
            self._occ_pos = (packed & np.uint64(0x1FFFF)).astype(np.int64)
        return self._occ_keys, self._occ_pos

    def _hit_ordinal(self, position: int) -> int:
        """Index of chunk-hit *position* within the chunk's ascending
        hit list (``_ck_hidx``) -- recovers what an argsort permutation
        of the occ index would have recorded there."""
        return int(self._ck_hidx.searchsorted(position))

    def _occ_list(self, key: int) -> List[int]:
        """*key*'s sorted chunk hit positions as a plain list.  Cached
        per key per chunk: conflicted keys (hot keys under the hand)
        tend to be examined repeatedly, and ``bisect`` on a list is an
        order of magnitude cheaper than array searches."""
        hit = self._occ_cache.get(key)
        if hit is None:
            occ_keys, occ_pos = self._occ_index()
            lo = int(occ_keys.searchsorted(key, side="left"))
            hi = int(occ_keys.searchsorted(key, side="right"))
            hit = occ_pos[lo:hi].tolist()
            self._occ_cache[key] = hit
        return hit

    def _inject(self, key: int, position: int) -> None:
        """Demote *key*'s classified hits after *position*.

        The first such occurrence becomes an injected candidate (the
        reference misses there and re-admits the key); the count of
        occurrences after it is remembered in ``_deferred`` so the
        engine re-applies their pre-computed effect to the key's new
        slot on re-admission."""
        key = int(key)
        occ = self._occ_list(key)
        i = bisect_right(occ, position)
        if i == len(occ):
            return
        heapq.heappush(self._injected, (occ[i], key))
        self._demoted.append(occ[i])
        rest = len(occ) - i - 1
        if rest:
            self._deferred[key] = rest
        else:
            self._deferred.pop(key, None)

    def _count_promotion(self, position: int) -> None:
        """Count one promotion at chunk-relative *position* (warmup-aware)."""
        if self._base + position >= self._warmup:
            self.promotions += 1

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def _classify(self, cids: np.ndarray):
        """Vectorized membership: (known bool array, engine aux data)."""
        raise NotImplementedError

    def _pre_apply(self, cids, known, aux) -> None:
        """Vectorized hit effects applied before the candidate walk."""

    def _post_apply(self, cids, known, aux) -> None:
        """Vectorized hit effects deferred until the walk finished."""

    def _scalar_pass(self, positions: List[int],
                     keys: List[int]) -> List[int]:
        """Resolve the chunk's candidates in order with exact scalar
        logic, iterating ``self._stream(positions, keys)``.  Returns
        chunk-relative positions of candidates that resolved to hits."""
        raise NotImplementedError

    def contents(self) -> set:
        """Resident interned ids (for differential final-state tests)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<{type(self).__name__} name={self.name!r} "
                f"capacity={self.capacity} chunks={self._chunks} "
                f"conflicts={self._conflicts}>")


__all__ = ["FastEngine"]
