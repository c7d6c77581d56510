"""Differential oracle for the weighted FIFO family.

Independent byte-budget models of FIFO, LRU and k-bit CLOCK, written
over plain Python lists, replay seeded traces of Zipf keys with Pareto
sizes fixed per key against the registry's sized builds.  After every
request the hit, the resident set and ``used`` must agree.

The models state the family's contracts directly:

* an object heavier than the whole cache is a miss that caches
  nothing and evicts nothing;
* otherwise a miss evicts from the old end until the newcomer fits,
  then admits it at the young end;
* FIFO leaves a hit alone, LRU moves it to the young end, and k-bit
  CLOCK bumps a counter saturating at ``2**bits - 1``; CLOCK's hand
  rotates a nonzero object to the young end with its counter
  decremented (one promotion), and evicts a zero one.

A model of Sized-QD-LP-FIFO (size-aware Quick Demotion around a 2-bit
CLOCK) composes a list probation, a byte-bounded ghost list and the
CLOCK model, and is also replayed on a trace whose objects change size
between requests.
"""

from __future__ import annotations

import pytest

from repro.policies.registry import make_sized
from repro.sized.workloads import unique_bytes

from tests.conftest import resized_zipf_pareto_trace, zipf_pareto_trace


class FIFOModel:
    """``[key, weight]`` entries, oldest first; hits touch nothing."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []

    @property
    def used(self):
        return sum(entry[1] for entry in self.entries)

    def keys(self):
        return [entry[0] for entry in self.entries]

    def find(self, key):
        for index, entry in enumerate(self.entries):
            if entry[0] == key:
                return index
        return None

    def on_hit(self, index, size):
        """FIFO: a hit changes nothing."""

    def make_room(self, size):
        while self.used + size > self.capacity:
            self.entries.pop(0)

    def admit(self, key, size):
        self.entries.append([key, size])

    def request(self, key, size):
        index = self.find(key)
        if index is not None:
            self.on_hit(index, size)
            return True
        if size > self.capacity:
            return False
        self.make_room(size)
        self.admit(key, size)
        return False


class LRUModel(FIFOModel):
    """FIFO whose hits move the object to the young end."""

    def on_hit(self, index, size):
        self.entries.append(self.entries.pop(index))


class ClockModel(FIFOModel):
    """``[key, weight, counter]`` entries, oldest first.

    ``promotions`` counts the hand's rotations.  A hit at a new weight
    bumps the counter and takes the weight in place, then runs the hand
    until ``used`` fits; the hand passes the object itself over (a
    rotation without a decrement) while any other is left, and evicts
    it once it is alone.
    """

    def __init__(self, capacity, bits):
        super().__init__(capacity)
        self.max_freq = (1 << bits) - 1
        self.promotions = 0

    def on_hit(self, index, size):
        entry = self.entries[index]
        entry[2] = min(entry[2] + 1, self.max_freq)
        if entry[1] == size:
            return
        entry[1] = size
        while self.used > self.capacity:
            victim = self.entries.pop(0)
            if victim is entry and self.entries:
                self.entries.append(victim)
                self.promotions += 1
            elif victim is not entry and victim[2]:
                victim[2] -= 1
                self.entries.append(victim)
                self.promotions += 1

    def make_room(self, size):
        while self.used + size > self.capacity:
            entry = self.entries.pop(0)
            if entry[2]:
                entry[2] -= 1
                self.entries.append(entry)
                self.promotions += 1

    def admit(self, key, size):
        self.entries.append([key, size, 0])


MODELS = {
    "Sized-FIFO": FIFOModel,
    "Sized-LRU": LRUModel,
    "Sized-2-bit-CLOCK": lambda capacity: ClockModel(capacity, bits=2),
    "Sized-3-bit-CLOCK": lambda capacity: ClockModel(capacity, bits=3),
}


def capacities(trace):
    """Three fractions of the footprint; some objects outweigh the least."""
    footprint = unique_bytes(trace)
    return [footprint // 50, footprint // 20, footprint // 5]


@pytest.mark.parametrize("seed", [7, 20231])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_sized_build_replays_the_model(name, seed):
    keys, sizes = trace = zipf_pareto_trace(seed)
    assert max(sizes) > min(capacities(trace)), "no object outweighs a cache"
    for capacity in capacities(trace):
        model = MODELS[name](capacity)
        cache = make_sized(name, capacity)
        for step, (key, size) in enumerate(zip(keys, sizes)):
            where = f"{name} capacity={capacity} request {step}"
            assert cache.request(key, size) == model.request(key, size), where
            assert cache.used == model.used, where
            resident = model.keys()
            assert len(cache) == len(resident), where
            assert all(resident_key in cache for resident_key in resident), \
                where


class SizedQDLPFIFOModel:
    """Sized-QD-LP-FIFO over lists: probation, ghost and a CLOCK main.

    * The probation holds ``[key, weight, visited]`` entries, oldest
      first, within 10 % of the budget; the main cache is a 2-bit
      :class:`ClockModel` with the rest.
    * A probation hit sets ``visited``.  At a new weight it takes the
      weight and drains the probation from the old end; the drain
      passes the object itself over to the young end while any other
      entry is left, and graduates it to the main cache once it is
      alone and still does not fit.
    * A miss heavier than both segments caches nothing.  A miss the
      ghost remembers (forgetting it), or one heavier than the
      probation, goes straight into the main cache.  Any other miss
      drains the probation until it fits and joins at the young end.
    * The drain graduates a visited entry into the main cache (one
      promotion if the main cache keeps it) and remembers an unvisited
      one in the ghost: ``[key, weight]`` entries, oldest first, whose
      weights stay within the main cache's budget except that the
      newest entry is always kept.
    """

    def __init__(self, capacity, probation_fraction=0.1, bits=2):
        self.probation_bytes = max(1, round(capacity * probation_fraction))
        main_bytes = capacity - self.probation_bytes
        if main_bytes < 1:
            main_bytes = 1
            self.probation_bytes = capacity - 1
        self.largest = max(main_bytes, self.probation_bytes)
        self.main = ClockModel(main_bytes, bits)
        self.ghost_bytes = main_bytes
        self.probation = []
        self.ghost = []
        self.promotions = 0
        # Coverage of the resize branch: the drain passing the resized
        # object over, and graduating it alone.
        self.passed_over = 0
        self.graduated_alone = 0

    @property
    def used(self):
        return sum(entry[1] for entry in self.probation) + self.main.used

    @property
    def promotion_count(self):
        return self.promotions + self.main.promotions

    def keys(self):
        return [entry[0] for entry in self.probation] + self.main.keys()

    def probation_keys(self):
        return {entry[0] for entry in self.probation}

    def request(self, key, size):
        for entry in self.probation:
            if entry[0] == key:
                entry[2] = True
                if entry[1] != size:
                    entry[1] = size
                    self.drain(0, skip=entry)
                return True
        if self.main.find(key) is not None:
            return self.main.request(key, size)
        if size > self.largest:
            return False
        if self.forget(key) or size > self.probation_bytes:
            self.main.request(key, size)
        else:
            self.drain(size)
            self.probation.append([key, size, False])
        return False

    def drain(self, incoming, skip=None):
        while (sum(entry[1] for entry in self.probation) + incoming
               > self.probation_bytes):
            entry = self.probation.pop(0)
            if entry is skip and self.probation:
                self.probation.append(entry)
                self.passed_over += 1
                continue
            key, size, visited = entry
            if visited or entry is skip:
                self.graduated_alone += entry is skip
                self.main.request(key, size)
                if self.main.find(key) is not None:
                    self.promotions += 1
            else:
                self.remember(key, size)

    def remember(self, key, size):
        self.forget(key)
        self.ghost.append([key, size])
        while (sum(entry[1] for entry in self.ghost) > self.ghost_bytes
               and len(self.ghost) > 1):
            self.ghost.pop(0)

    def forget(self, key):
        for index, entry in enumerate(self.ghost):
            if entry[0] == key:
                del self.ghost[index]
                return True
        return False


def replay_qd_model(trace, capacity):
    """Replay *trace* through the build and the model in lockstep."""
    keys, sizes = trace
    model = SizedQDLPFIFOModel(capacity)
    cache = make_sized("Sized-QD-LP-FIFO", capacity)
    for step, (key, size) in enumerate(zip(keys, sizes)):
        where = f"Sized-QD-LP-FIFO capacity={capacity} request {step}"
        assert cache.request(key, size) == model.request(key, size), where
        assert cache.used == model.used, where
        resident = model.keys()
        assert len(cache) == len(resident), where
        assert all(resident_key in cache for resident_key in resident), \
            where
        in_probation = model.probation_keys()
        assert all(cache.in_probation(resident_key)
                   == (resident_key in in_probation)
                   for resident_key in resident), where
        assert cache.promotion_count == model.promotion_count, where
    return model


@pytest.mark.parametrize("seed", [7, 20231])
def test_sized_qd_lp_fifo_replays_the_model(seed):
    trace = zipf_pareto_trace(seed)
    for capacity in capacities(trace):
        model = replay_qd_model(trace, capacity)
        assert model.promotions > 0 and model.main.promotions > 0


@pytest.mark.parametrize("seed", [7, 20231])
def test_sized_qd_lp_fifo_replays_the_model_across_resizes(seed):
    trace = resized_zipf_pareto_trace(seed)
    passed_over = graduated_alone = 0
    for capacity in capacities(trace):
        model = replay_qd_model(trace, capacity)
        passed_over += model.passed_over
        graduated_alone += model.graduated_alone
    assert passed_over > 0 and graduated_alone > 0
