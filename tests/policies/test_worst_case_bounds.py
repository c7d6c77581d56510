"""Worst-case known answer: Sleator and Tarjan's resource augmentation.

Let an online policy hold k slots and Belady's MIN hold h <= k slots,
both starting empty.  For every request sequence,

    misses(policy, k) <= k / (k - h + 1) * misses(MIN, h) + k.

The bound holds for every *conservative* policy: one that, on any
stretch of requests touching at most k distinct keys, misses at most k
times.  Split the trace into P phases that each touch exactly k
distinct keys (the last may touch fewer).  A conservative policy misses
at most k times per phase.  MIN holds a phase's first key right after
serving it, and from the next request through the first request of the
next phase k other keys are touched, so MIN with h slots misses at
least k - h + 1 times in that stretch; the stretches do not overlap.
So the policy misses at most kP times and MIN at least
(k - h + 1)(P - 1) times, which is the bound.

LRU and FIFO are conservative.  Take a stretch with at most k distinct
keys and suppose some key p misses twice in it; let p's second miss be
the first repeat miss of the stretch.  In between, LRU evicted p only
after k other keys were used more recently than p, and FIFO only at the
k-th or a later insertion after p's, that is after k misses on keys
other than p, none of them a repeat.  Either way the stretch touches p
and k other keys, k + 1 in all.  So every key misses at most once in
the stretch, and the policy at most k times.

LFU is not conservative, and the property does fail for it: after a
phase that makes ten keys frequent, five new keys keep evicting each
other (see :func:`test_lfu_breaks_the_bound_on_a_frequency_shift`).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.policies.belady import Belady
from repro.policies.registry import make
from repro.sim.simulator import simulate

from tests.conftest import FAMILIES

CONSERVATIVE = ("LRU", "FIFO")


def misses(name, capacity, keys):
    return simulate(make(name, capacity), keys).misses


def bound(k, h, keys):
    """Sleator-Tarjan's ceiling for a k-slot conservative policy."""
    return k / (k - h + 1) * simulate(Belady(h), keys).misses + k


@pytest.mark.parametrize("name", CONSERVATIVE)
@given(family=st.sampled_from(sorted(FAMILIES)),
       seed=st.integers(0, 2**32 - 1),
       k=st.integers(1, 16),
       h_offset=st.integers(0, 15),
       n=st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_conservative_policy_within_resource_augmentation_bound(
        name, family, seed, k, h_offset, n):
    h = max(1, k - h_offset)
    keys = FAMILIES[family](np.random.default_rng(seed), k, n).tolist()
    assert misses(name, k, keys) <= bound(k, h, keys)


@pytest.mark.parametrize("k", [1, 4, 10])
def test_loop_of_k_plus_one_misses_every_request(k):
    """LRU's and FIFO's worst case: a loop over k + 1 keys misses on
    every request, and the bound against MIN with k slots still
    holds."""
    keys = [i % (k + 1) for i in range(50 * (k + 1))]
    for name in CONSERVATIVE:
        assert misses(name, k, keys) == len(keys)
        assert misses(name, k, keys) <= bound(k, k, keys)


def frequency_shift():
    return [i % 10 for i in range(1000)] + [10 + i % 5 for i in range(1000)]


def test_lfu_breaks_the_bound_on_a_frequency_shift():
    """Ten keys grow frequent, then five new keys cycle in a 10-slot
    cache.  LFU evicts the newest key on every phase-two miss, so it
    misses 1010 times where LRU and FIFO miss only the 15 compulsory
    times -- above the bound for every h."""
    keys = frequency_shift()
    assert misses("LFU", 10, keys) == 1010
    for h, ceiling in ((5, 951.7), (8, 793.3), (10, 160.0)):
        assert bound(10, h, keys) == pytest.approx(ceiling, abs=0.05)
        assert misses("LFU", 10, keys) > bound(10, h, keys)
        for name in CONSERVATIVE:
            assert misses(name, 10, keys) == 15 <= bound(10, h, keys)
