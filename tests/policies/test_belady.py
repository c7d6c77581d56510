"""Unit tests for Belady's MIN, including optimality checks."""

import pytest

from repro.policies.belady import Belady
from repro.policies.registry import REGISTRY, make
from repro.sim.fast.dispatch import FAST_POLICY_NAMES
from repro.sim.options import SimOptions
from repro.sim.simulator import simulate
from tests.conftest import drive

ONLINE_POLICIES = sorted(name for name in REGISTRY if name != "Belady")


def belady_misses(keys, capacity):
    belady = Belady(capacity)
    belady.prepare(keys)
    for key in keys:
        belady.request(key)
    return belady.stats.misses


def run_belady(keys, capacity):
    policy = Belady(capacity)
    policy.prepare(keys)
    return [policy.request(key) for key in keys], policy


class TestBelady:
    def test_requires_prepare(self):
        policy = Belady(2)
        with pytest.raises(RuntimeError):
            policy.request("a")

    def test_hand_traced_min_decision(self):
        # Sequence: a b c a b d a b, capacity 2.  Demand-fetch MIN must
        # insert every missed object, so on the c miss it evicts the
        # farther-future of {a, b} (that is b); c is then dropped for
        # the b re-fetch, and the d miss sacrifices b again.
        keys = ["a", "b", "c", "a", "b", "d", "a", "b"]
        outcomes, policy = run_belady(keys, 2)
        assert outcomes == [False, False, False, True, False, False,
                            True, False]

    def test_evicts_never_used_again_first(self):
        keys = ["a", "b", "x", "a", "b", "a", "b"]
        outcomes, policy = run_belady(keys, 2)
        # The x miss must evict b (farther next use than a); the b miss
        # then evicts x (never reused), after which a and b both hit.
        assert outcomes == [False, False, False, True, False, True, True]
        assert sum(outcomes) == 3

    def test_capacity_never_exceeded(self, zipf_keys):
        policy = Belady(30)
        policy.prepare(zipf_keys)
        for key in zipf_keys:
            policy.request(key)
            assert len(policy) <= 30

    def test_too_many_requests_raises(self):
        policy = Belady(2)
        policy.prepare(["a"])
        policy.request("a")
        with pytest.raises(RuntimeError):
            policy.request("b")

    def test_reprepare_resets(self, zipf_keys):
        policy = Belady(20)
        policy.prepare(zipf_keys[:100])
        for key in zipf_keys[:100]:
            policy.request(key)
        misses_first = policy.stats.misses
        policy.stats.reset()
        policy.prepare(zipf_keys[:100])
        for key in zipf_keys[:100]:
            policy.request(key)
        assert policy.stats.misses == misses_first

    @pytest.mark.parametrize("policy_name", ONLINE_POLICIES)
    def test_optimality_upper_bound(self, policy_name, zipf_keys):
        """No online policy may beat Belady -- the core optimality
        property, checked against the whole policy zoo."""
        online = make(policy_name, 40)
        drive(online, zipf_keys)
        assert belady_misses(zipf_keys, 40) <= online.stats.misses

    @pytest.mark.parametrize("policy_name", sorted(FAST_POLICY_NAMES))
    def test_fast_engine_optimality_upper_bound(self, policy_name,
                                                zipf_keys):
        """The bound holds for the fast engines too."""
        policy = make(policy_name, 40)
        result = simulate(policy, zipf_keys, SimOptions(fast=True))
        assert policy.stats.requests == 0, "fell back to the reference"
        assert belady_misses(zipf_keys, 40) <= result.misses
