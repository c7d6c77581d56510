"""Differential tests: reference policies vs second implementations.

The fast LHD engine promises *bit-identical* behaviour, so these tests
compare the full per-request hit/miss mask, the final cache contents,
and the promotion count against the reference implementation -- not
just aggregate miss ratios -- across workload shapes chosen to stress
chunked replay: skewed Zipf (hot keys), scans (bursty cold misses),
and loops (every key evicted before its next access at small
capacities).

The policies whose engines were removed (the reference is faster at
the paper's sizes) keep a second implementation here instead: small
independent models written from the algorithms' textbook form --
CLOCK as a ring of slots swept by a hand, SIEVE as a list with a hand
index, S3-FIFO and the QD wrappers as deques -- run through the same
checks.  LHD has a model too, because the engine and the reference
share their eviction sampler: the model draws with one
``random.Random.randrange`` call per sample and picks the victim with
``min``, as the reference did before it drew in bulk.
"""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.registry import REGISTRY
from repro.sim.fast.dispatch import (
    FAST_POLICY_NAMES,
    engine_for,
    has_fast_engine,
)
from repro.sim.fast.intern import intern_trace
from repro.sim.options import SimOptions
from repro.sim.runner import LARGE_FRACTION, SMALL_FRACTION
from repro.sim.simulator import simulate
from repro.traces.corpus import build_corpus


class _ClockModel:
    """k-bit CLOCK as a ring of slots: the hand decrements each nonzero
    counter it passes and replaces the first zero-counter object."""

    def __init__(self, capacity: int, bits: int) -> None:
        self.capacity = capacity
        self.max_count = (1 << bits) - 1
        self.slots = []
        self.count = {}
        self.hand = 0
        self.promotions = 0

    def __contains__(self, key) -> bool:
        return key in self.count

    def request(self, key) -> bool:
        if key in self.count:
            self.count[key] = min(self.count[key] + 1, self.max_count)
            return True
        self.insert(key)
        return False

    def insert(self, key) -> None:
        if len(self.slots) < self.capacity:
            self.slots.append(key)
        else:
            while self.count[self.slots[self.hand]]:
                self.count[self.slots[self.hand]] -= 1
                self.promotions += 1
                self.hand = (self.hand + 1) % self.capacity
            del self.count[self.slots[self.hand]]
            self.slots[self.hand] = key
            self.hand = (self.hand + 1) % self.capacity
        self.count[key] = 0

    def contents(self) -> set:
        return set(self.count)


class _SieveModel:
    """SIEVE on a list ordered oldest first; the hand is an index that
    moves toward newer objects and wraps to the oldest."""

    promotions = 0

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.keys = []
        self.visited = {}
        self.hand = None

    def request(self, key) -> bool:
        if key in self.visited:
            self.visited[key] = True
            return True
        if len(self.keys) >= self.capacity:
            i = 0 if self.hand is None else self.hand
            while self.visited[self.keys[i]]:
                self.visited[self.keys[i]] = False
                i = (i + 1) % len(self.keys)
            del self.visited[self.keys.pop(i)]
            self.hand = i if i < len(self.keys) else None
        self.keys.append(key)
        self.visited[key] = False
        return False

    def contents(self) -> set:
        return set(self.visited)


def _ghost_add(ghost: dict, key, limit: int) -> None:
    """FIFO ghost of at most *limit* keys (a dict keeps insertion order)."""
    if limit:
        ghost[key] = None
        if len(ghost) > limit:
            del ghost[next(iter(ghost))]


class _S3FIFOModel:
    """S3-FIFO from its pseudocode: small and main FIFO deques, 2-bit
    frequencies, and a ghost FIFO; sizes are read off the reference."""

    def __init__(self, policy) -> None:
        self.small_capacity = policy.small_capacity
        self.main_capacity = policy.main_capacity
        self.ghost_limit = policy.ghost.max_entries
        self.small = deque()
        self.main = deque()
        self.freq = {}
        self.ghost = {}
        self.promotions = 0

    def request(self, key) -> bool:
        if key in self.freq:
            self.freq[key] = min(self.freq[key] + 1, 3)
            return True
        if key in self.ghost:
            del self.ghost[key]
            self.insert_main(key)
        else:
            while len(self.small) >= self.small_capacity:
                self.evict_small()
            self.small.append(key)
        self.freq[key] = 0
        return False

    def insert_main(self, key) -> None:
        while len(self.main) >= self.main_capacity:
            self.evict_main()
        self.main.append(key)

    def evict_small(self) -> None:
        key = self.small.popleft()
        if self.freq[key] > 1:
            self.freq[key] = 0
            self.insert_main(key)
            self.promotions += 1
        else:
            del self.freq[key]
            _ghost_add(self.ghost, key, self.ghost_limit)

    def evict_main(self) -> None:
        while True:
            key = self.main.popleft()
            if not self.freq[key]:
                del self.freq[key]
                return
            self.freq[key] -= 1
            self.main.append(key)
            self.promotions += 1

    def contents(self) -> set:
        return set(self.freq)


def _lhd_bucket(age: int) -> int:
    if age <= 0:
        return 0
    return min((age + 1).bit_length() - 1, 31)


def _lhd_mid(bucket: int) -> float:
    return ((1 << bucket) - 1 + (1 << (bucket + 1)) - 2) / 2.0


class _LHDModel:
    """LHD as its reference was written before the bulk sampler: one
    ``randrange`` per draw, ``min`` over the sample by hit density, and
    the backward density sweep spelled out here."""

    promotions = 0

    def __init__(self, policy) -> None:
        self.capacity = policy.capacity
        self.sample_size = policy.sample_size
        self.ewma_decay = policy.ewma_decay
        self.rng = random.Random()
        self.rng.setstate(policy._rng.getstate())
        self.clock = 0
        self.reconf_interval = max(1000, policy.capacity)
        self.next_reconf = self.reconf_interval
        self.meta = {}
        self.keys = []
        self.pos = {}
        self.hits = [[0.0] * 32 for _ in range(2)]
        self.evictions = [[0.0] * 32 for _ in range(2)]
        self.density = [[1.0 / (_lhd_mid(b) + 1.0) for b in range(32)]
                        for _ in range(2)]

    def __contains__(self, key) -> bool:
        return key in self.meta

    def request(self, key) -> bool:
        self.clock += 1
        if self.clock >= self.next_reconf:
            self.reconfigure()
        meta = self.meta.get(key)
        if meta is not None:
            last, klass = meta
            self.hits[klass][_lhd_bucket(self.clock - last)] += 1.0
            self.meta[key] = (self.clock, 1)
            return True
        if len(self.keys) >= self.capacity:
            self.evict_one()
        self.meta[key] = (self.clock, 0)
        self.pos[key] = len(self.keys)
        self.keys.append(key)
        return False

    def hit_density(self, key) -> float:
        last, klass = self.meta[key]
        return self.density[klass][_lhd_bucket(self.clock - last)]

    def evict_one(self) -> None:
        n = len(self.keys)
        if n <= self.sample_size:
            sample = self.keys
        else:
            sample = [self.keys[self.rng.randrange(n)]
                      for _ in range(self.sample_size)]
        victim = min(sample, key=self.hit_density)
        last, klass = self.meta.pop(victim)
        self.evictions[klass][_lhd_bucket(self.clock - last)] += 1.0
        idx = self.pos.pop(victim)
        tail = self.keys.pop()
        if tail is not victim:
            self.keys[idx] = tail
            self.pos[tail] = idx

    def reconfigure(self) -> None:
        self.next_reconf = self.clock + self.reconf_interval
        for klass in range(2):
            hits = self.hits[klass]
            evictions = self.evictions[klass]
            hits_above = events_above = lifetime_above = 0.0
            for b in range(31, -1, -1):
                events = hits[b] + evictions[b]
                if b < 31:
                    lifetime_above += (_lhd_mid(b + 1) - _lhd_mid(b)) \
                        * events_above
                hits_above += hits[b]
                events_above += events
                lifetime_above += events
                if events_above > 0.0 and lifetime_above > 0.0:
                    self.density[klass][b] = hits_above / lifetime_above
            for b in range(32):
                hits[b] *= self.ewma_decay
                evictions[b] *= self.ewma_decay

    def contents(self) -> set:
        return set(self.meta)


class _QDLPModel:
    """Quick Demotion: a probation deque with visited bits and a ghost
    FIFO in front of a *main* model, which sees one request for every
    graduation and ghost admission."""

    def __init__(self, policy, main) -> None:
        self.probation_capacity = policy.probation_capacity
        self.ghost_limit = policy.ghost.max_entries
        self.main = main
        self.probation = deque()
        self.visited = {}
        self.ghost = {}
        self.graduations = 0

    def request(self, key) -> bool:
        if key in self.visited:
            self.visited[key] = True
            return True
        if key in self.main:
            return self.main.request(key)
        if key in self.ghost:
            del self.ghost[key]
            self.main.request(key)
            return False
        if len(self.probation) >= self.probation_capacity:
            oldest = self.probation.popleft()
            if self.visited.pop(oldest):
                self.main.request(oldest)
                self.graduations += 1
            else:
                _ghost_add(self.ghost, oldest, self.ghost_limit)
        self.probation.append(key)
        self.visited[key] = False
        return False

    @property
    def promotions(self) -> int:
        return self.graduations + self.main.promotions

    def contents(self) -> set:
        return set(self.visited) | self.main.contents()


#: Registry policies with an independent model -> the model, built
#: from a fresh reference instance.
MODELS = {
    "FIFO-Reinsertion": lambda ref: _ClockModel(ref.capacity, 1),
    "2-bit-CLOCK": lambda ref: _ClockModel(ref.capacity, ref.bits),
    "3-bit-CLOCK": lambda ref: _ClockModel(ref.capacity, ref.bits),
    "SIEVE": lambda ref: _SieveModel(ref.capacity),
    "S3-FIFO": _S3FIFOModel,
    "LHD": _LHDModel,
    "QD-LP-FIFO": lambda ref: _QDLPModel(
        ref, _ClockModel(ref.main_capacity, ref.main.bits)),
    "QD-LHD": lambda ref: _QDLPModel(ref, _LHDModel(ref.main)),
}

POLICIES = sorted(FAST_POLICY_NAMES | set(MODELS))
CAPS = (1, 2, 10, 137, 1000)
#: More capacities just above LHD's 32-key eviction sample, where every
#: eviction draws one.  QD-LHD's main cache holds about 90 % of the
#: total, so its list adds the totals whose main cache has those sizes.
SAMPLING_CAPS = {
    "LHD": (33, 64, 65, 129),
    "QD-LHD": (33, 37, 64, 65, 71, 72, 129, 143),
}

_rng = np.random.default_rng(42)
_N = 12_000
TRACES = {
    "zipf": (_rng.zipf(1.2, _N) % 2000).astype(np.int64),
    "scan": np.concatenate([np.arange(500), np.arange(500),
                            np.arange(1500), np.arange(1500),
                            np.arange(900)]).astype(np.int64),
    "loop": np.tile(np.arange(300, dtype=np.int64), 24),
}


def _reference_mask(policy, raw) -> np.ndarray:
    return np.fromiter((policy.request(int(k)) for k in raw),
                       dtype=bool, count=len(raw))


def _reference_promotions(policy) -> int:
    promotions = getattr(policy, "promotion_count", None)
    if promotions is None:
        promotions = policy.stats.promotions
    return int(promotions)


def _second_runs(pname: str, cap: int, raw: np.ndarray, interned):
    """(label, hit mask, resident raw keys, promotions) of *pname*'s
    independent model and of its fast engine, whichever exist."""
    runs = []
    if pname in MODELS:
        model = MODELS[pname](REGISTRY[pname].factory(cap))
        runs.append(("model", _reference_mask(model, raw),
                     model.contents(), model.promotions))
    if pname in FAST_POLICY_NAMES:
        engine = engine_for(REGISTRY[pname].factory(cap),
                            interned.num_unique)
        assert engine is not None, f"no fast engine for {pname}"
        mask = engine.replay(interned.ids)
        assert engine.hits + engine.misses == engine.requests == len(raw)
        assert int(mask.sum()) == engine.hits
        contents = {int(interned.uniques[k]) for k in engine.contents()}
        runs.append(("engine", mask, contents, engine.promotions))
    assert runs, f"{pname} has neither a model nor an engine"
    return runs


def assert_bit_identical(pname: str, raw: np.ndarray, cap: int) -> None:
    """Full differential check of one (policy, trace, capacity) cell."""
    spec = REGISTRY[pname]
    if cap < spec.min_capacity:
        return
    interned = intern_trace(raw)
    ref = spec.factory(cap)
    ref_mask = _reference_mask(ref, raw)
    ref_contents = {int(k) for k in interned.uniques if int(k) in ref}
    for label, mask, contents, promotions in _second_runs(
            pname, cap, raw, interned):
        if not np.array_equal(ref_mask, mask):
            index = int(np.nonzero(ref_mask != mask)[0][0])
            pytest.fail(f"{pname} cap={cap}: first divergence at request "
                        f"{index}: {label}={bool(mask[index])} "
                        f"ref={bool(ref_mask[index])}")
        assert contents == ref_contents, \
            f"{pname} cap={cap}: final cache contents differ ({label})"
        assert promotions == _reference_promotions(ref), \
            f"{pname} cap={cap}: promotion counts differ ({label})"


@pytest.mark.parametrize("tname", sorted(TRACES))
@pytest.mark.parametrize("pname", POLICIES)
def test_bit_identical_across_capacities(pname, tname):
    for cap in CAPS + SAMPLING_CAPS.get(pname, ()):
        assert_bit_identical(pname, TRACES[tname], cap)


@pytest.mark.parametrize("pname", POLICIES)
def test_bit_identical_at_paper_sizes(pname):
    """A corpus trace at Fig. 5's 0.1 % and 10 % sizes (with its
    50-object floor), where every policy evicts throughout."""
    trace = build_corpus(scale=0.5, traces_per_family=1, seed=42,
                         families=["msr"])[0]
    raw = np.asarray(trace.keys, dtype=np.int64)
    for fraction in (SMALL_FRACTION, LARGE_FRACTION):
        assert_bit_identical(pname, raw, trace.cache_size(fraction, 50))


def test_lhd_fills_mid_epoch():
    """The cache fills partway through a reconfiguration epoch, so the
    epoch's hits are counted by both kinds of chunk: vectorized while
    the free space holds every candidate, then by the reference walk.
    Every hit on the hot loop has age 100, so both add to one bucket."""
    cap = 5000   # also the reconfiguration interval, > one chunk
    idx = np.arange(20_000)
    raw = np.where(idx % 2 == 0, idx // 2 % 50, 1000 + idx // 2)
    reference = REGISTRY["LHD"].factory(cap)
    for first_eviction, key in enumerate(raw.tolist()):
        reference.request(key)
        if reference.stats.misses > cap:
            break
    # Request i runs at clock i + 1; epochs start at multiples of cap.
    epoch_start = (first_eviction + 1) // cap * cap - 1
    assert epoch_start > 0 and first_eviction - epoch_start > cap // 2
    assert_bit_identical("LHD", raw, cap)


def test_lhd_chunk_with_one_eviction():
    """A chunk whose candidates overflow the free space by one key
    evicts once, so it must take the reference walk: vectorized hit
    accounting would show that eviction the chunk's final metadata."""
    cap = 100   # 99 looping keys leave one slot; two new keys arrive
    loop = np.tile(np.arange(cap - 1), 30)   # in the chunk [1999, 2999)
    raw = np.concatenate([loop[:2099], [1000, 1001], loop[2099:]])
    assert_bit_identical("LHD", raw, cap)


def test_lru_chunk_boundary_eager_restamp():
    """Two residents straddle a chunk boundary with the *older* one
    re-accessed inside the next chunk, at capacities 2-4, so evictions
    just after the boundary examine keys with hits on both sides of it.
    Written as a regression test for the LRU engine (since removed),
    whose lazy skip of the boundary victim evicted the wrong key a few
    requests later; it runs every engine on the same interleaving."""
    a, x, b, c = 10, 11, 12, 13
    pad = np.arange(100, 100 + 4094, dtype=np.int64)
    chunk1 = np.concatenate([pad, [a, x]]).astype(np.int64)
    trace = np.concatenate(
        [chunk1, [a, b, c, a, b, x, a, c]]).astype(np.int64)
    for pname in POLICIES:
        for cap in (2, 3, 4):
            assert_bit_identical(pname, trace, cap)


@pytest.mark.parametrize("trial", range(6))
def test_randomized_small_cap_stress(trial):
    """Small caches + many chunk crossings: every request is near the
    eviction frontier."""
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(4000, 8001))
    u = int(rng.integers(4, 300))
    style = trial % 3
    if style == 0:
        raw = rng.integers(0, u, n).astype(np.int64)
    elif style == 1:
        raw = (rng.zipf(1.3, n) % u).astype(np.int64)
    else:
        base = np.tile(np.arange(u, dtype=np.int64), n // u + 1)[:n]
        noise = rng.integers(0, u, n)
        raw = np.where(rng.random(n) < 0.3, noise, base).astype(np.int64)
    for pname in POLICIES:
        for cap in (1, 2, 5, 17, u // 2 + 1, u + 3):
            assert_bit_identical(pname, raw, cap)


@pytest.mark.parametrize(
    "pname", sorted(set(POLICIES) | {"FIFO", "LRU", "ARC", "QD-ARC"}))
@pytest.mark.parametrize("warmup", [0, 1, 1000, _N])
def test_warmup_statistics_match_reference(pname, warmup):
    """``simulate(fast=True)`` counts from *warmup* like the reference,
    through an engine or, for the policies without one, through the
    fallback to the reference loop."""
    raw = TRACES["zipf"]
    reference = simulate(REGISTRY[pname].factory(137), raw.tolist(),
                         SimOptions(warmup=warmup))
    fast = simulate(REGISTRY[pname].factory(137), raw,
                    SimOptions(warmup=warmup, fast=True))
    assert (fast.hits, fast.misses) == (reference.hits, reference.misses)
    assert fast.requests == len(raw) - warmup


def test_fast_engines_are_single_use():
    interned = intern_trace(TRACES["loop"])
    engine = engine_for(REGISTRY["LHD"].factory(10), interned.num_unique)
    engine.replay(interned.ids)
    with pytest.raises(RuntimeError, match="single-use"):
        engine.replay(interned.ids)


def test_dispatch_refuses_stale_policies():
    policy = REGISTRY["LHD"].factory(10)
    policy.request(1)
    assert engine_for(policy, 5) is None
    assert has_fast_engine("LHD")
    assert not has_fast_engine("LIRS")


@pytest.mark.parametrize("pname", sorted(REGISTRY))
def test_dispatch_serves_exactly_fast_policy_names(pname):
    """``simulate(fast=True)`` calls ``engine_for`` directly, so an
    engine branch left behind for a name dropped from
    ``FAST_POLICY_NAMES`` would still run there."""
    spec = REGISTRY[pname]
    engine = engine_for(spec.factory(max(64, spec.min_capacity)), 1000)
    assert (engine is not None) == (pname in FAST_POLICY_NAMES)


@given(keys=st.lists(st.integers(min_value=0, max_value=30),
                     min_size=1, max_size=300),
       cap=st.integers(min_value=2, max_value=40))
@settings(max_examples=25, deadline=None)
def test_property_mask_and_counts(keys, cap):
    """hits + misses == requests, and every second implementation
    agrees with the reference, for arbitrary small traces."""
    raw = np.asarray(keys, dtype=np.int64)
    for pname in ("LHD", "QD-LHD", "SIEVE"):
        assert_bit_identical(pname, raw, cap)
