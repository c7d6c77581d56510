"""Lazy Promotion on top of FIFO: the LP-FIFO family (paper §3).

Lazy Promotion performs promotion only at eviction time.  The canonical
example is **FIFO-Reinsertion** (equivalently 1-bit CLOCK or Second
Chance): a cache hit merely sets a boolean on the object -- no queue
manipulation, no locking -- and when the object reaches the eviction end
of the FIFO queue it is reinserted at the head if that boolean is set.

The paper's large-scale study shows these "weak LRUs" are in fact *more*
efficient than LRU on most block and web traces, for two reasons:

1. Lazy promotion implies quick demotion: a newly-inserted object is
   pushed toward eviction both by objects requested after it *and* by
   not-yet-promoted objects requested before it (Fig. 2e).
2. The near-insertion ordering suits workloads with popularity decay.

:class:`KBitClock` generalises the visited bit to a small saturating
counter.  The paper's **2-bit CLOCK** tracks frequency up to three and
decrements by one each time the CLOCK hand scans past, evicting objects
whose counter reached zero.  The extra bit helps on high-reuse
(social-network-like) workloads where one bit cannot separate warm from
hot objects.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.base import EvictionPolicy, Key, check_size


class FIFOReinsertion(EvictionPolicy):
    """FIFO-Reinsertion == 1-bit CLOCK == Second Chance.

    Requests to cached objects only set the object's visited bit -- the
    object is *not* moved.  At eviction time the oldest object is
    examined: if visited, the bit is cleared and the object is
    reinserted at the young end (the lazy promotion); otherwise it is
    evicted.

    The queue is one insertion-ordered dict of key -> visited bit,
    oldest first: assigning to a present key keeps its position, so a
    hit is a flag write and a reinsertion is pop-oldest plus append.

    This terminates: each reinsertion clears a bit, so after at most
    one full pass an unvisited object is found.
    """

    name = "FIFO-Reinsertion"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._queue: "OrderedDict[Key, bool]" = OrderedDict()

    def request(self, key: Key) -> bool:
        queue = self._queue
        if key in queue:
            if not queue[key]:
                queue[key] = True
            self.stats.hits += 1
            if self._listeners:
                self._notify_hit(key)
            return True
        self.stats.misses += 1
        if len(queue) >= self.capacity:
            self._evict_one()
        queue[key] = False
        if self._listeners:
            self._notify_admit(key)
        return False

    def _evict_one(self) -> None:
        queue = self._queue
        while True:
            key, visited = queue.popitem(last=False)
            if not visited:
                if self._listeners:
                    self._notify_evict(key)
                return
            queue[key] = False
            self.stats.promotions += 1
            if self._listeners:
                self._notify_promote(key)

    def __contains__(self, key: Key) -> bool:
        return key in self._queue

    def __len__(self) -> int:
        return len(self._queue)


class KBitClock(EvictionPolicy):
    """CLOCK with a *bits*-wide saturating frequency counter.

    ``bits=1`` reproduces :class:`FIFOReinsertion` exactly (kept as a
    separate class for clarity and as the named algorithm of §3).
    ``bits=2`` is the paper's 2-bit CLOCK: frequency saturates at 3, the
    hand decrements on scan, and zero-frequency objects are evicted.

    An object's counter starts at zero on insertion; each hit increments
    it (saturating); each hand pass over a nonzero object decrements it
    and rotates the object back to the young end.  The queue is one
    insertion-ordered dict, oldest first, of key -> ``weight << bits |
    counter``, so a hit reads and writes one int.  Every object weighs
    1 unless its request gives a *size* (``Sized-{k}-bit-CLOCK``,
    size-aware Lazy Promotion): the hand runs until ``used`` fits
    ``capacity``, and an object heavier than the cache is a miss that
    caches nothing.
    """

    def __init__(self, capacity: int, bits: int = 2) -> None:
        super().__init__(capacity)
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        self.bits = bits
        self.max_freq = (1 << bits) - 1
        self.name = f"{bits}-bit-CLOCK"
        self._queue: "OrderedDict[Key, int]" = OrderedDict()
        self.used = 0

    def request(self, key: Key, size: int = 1) -> bool:
        queue = self._queue
        if key in queue:
            entry = queue[key]
            if entry >> self.bits != size:
                self._resize(key, entry, size)
            elif entry & self.max_freq != self.max_freq:
                queue[key] = entry + 1
            self.stats.hits += 1
            if self._listeners:
                self._notify_hit(key)
            return True
        if not 0 < size <= self.capacity:
            return self._bypass(size)
        self.stats.misses += 1
        used = self.used + size
        if used > self.capacity:
            used = self._make_room(used)
        queue[key] = size << self.bits
        self.used = used
        if self._listeners:
            self._notify_admit(key, size)
        return False

    def _make_room(self, used: int) -> int:
        """Run the hand until *used* fits; returns the new total."""
        queue, max_freq = self._queue, self.max_freq
        while used > self.capacity:
            key, entry = queue.popitem(last=False)
            while entry & max_freq:
                queue[key] = entry - 1
                self.stats.promotions += 1
                if self._listeners:
                    self._notify_promote(key)
                key, entry = queue.popitem(last=False)
            used -= entry >> self.bits
            if self._listeners:
                self._notify_evict(key, entry >> self.bits)
        return used

    def _resize(self, key: Key, entry: int, size: int) -> None:
        """Count a hit on *key* at its new weight, then run the hand
        until it fits, passing *key* over while others are left."""
        check_size(size)
        bits, max_freq, queue = self.bits, self.max_freq, self._queue
        queue[key] = size << bits | min((entry & max_freq) + 1, max_freq)
        self.used += size - (entry >> bits)
        while self.used > self.capacity:
            victim, victim_entry = queue.popitem(last=False)
            if victim == key and queue:
                queue[key] = victim_entry
            elif victim != key and victim_entry & max_freq:
                queue[victim] = victim_entry - 1
            else:
                self.used -= victim_entry >> bits
                if self._listeners:
                    self._notify_evict(victim, victim_entry >> bits)
                continue
            self.stats.promotions += 1
            if self._listeners:
                self._notify_promote(victim)

    def resize(self, new_capacity: int) -> None:
        """Change the capacity at runtime (evicting if shrinking).

        Used by the adaptive QD wrapper, which moves byte/slot budget
        between the probationary queue and the main CLOCK online.
        """
        if new_capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {new_capacity}")
        self.capacity = int(new_capacity)
        self.used = self._make_room(self.used)

    def __contains__(self, key: Key) -> bool:
        return key in self._queue

    def __len__(self) -> int:
        return len(self._queue)


def two_bit_clock(capacity: int) -> KBitClock:
    """Factory for the paper's 2-bit CLOCK configuration."""
    return KBitClock(capacity, bits=2)


__all__ = ["FIFOReinsertion", "KBitClock", "two_bit_clock"]
