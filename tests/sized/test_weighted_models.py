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
  decremented, and evicts a zero one.
"""

from __future__ import annotations

import pytest

from repro.policies.registry import make_sized
from repro.sized.workloads import unique_bytes

from tests.conftest import zipf_pareto_trace


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

    def on_hit(self, index):
        """FIFO: a hit changes nothing."""

    def make_room(self, size):
        while self.used + size > self.capacity:
            self.entries.pop(0)

    def admit(self, key, size):
        self.entries.append([key, size])

    def request(self, key, size):
        index = self.find(key)
        if index is not None:
            self.on_hit(index)
            return True
        if size > self.capacity:
            return False
        self.make_room(size)
        self.admit(key, size)
        return False


class LRUModel(FIFOModel):
    """FIFO whose hits move the object to the young end."""

    def on_hit(self, index):
        self.entries.append(self.entries.pop(index))


class ClockModel(FIFOModel):
    """``[key, weight, counter]`` entries, oldest first."""

    def __init__(self, capacity, bits):
        super().__init__(capacity)
        self.max_freq = (1 << bits) - 1

    def on_hit(self, index):
        entry = self.entries[index]
        entry[2] = min(entry[2] + 1, self.max_freq)

    def make_room(self, size):
        while self.used + size > self.capacity:
            entry = self.entries.pop(0)
            if entry[2]:
                entry[2] -= 1
                self.entries.append(entry)

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
