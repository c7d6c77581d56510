"""LIRS against an independent model with stack S as a plain list.

:class:`_LIRSModel` is LIRS as it was written on a linked list, with
every structure spelled out as a plain list: stack S most recent first
(the list's end is the bottom), queue Q and the non-resident order
oldest first.  The policy keeps S as an insertion-ordered dict whose
first key is the bottom, so the two must agree request by request on
generated key patterns -- hits, and at the end the stack, the LIR set,
Q and the order in which keys became non-resident.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.policies.lirs import LIRS

from tests.conftest import FAMILIES

LIR, HIR_RES, HIR_NONRES = "lir", "hir", "nonres"


class _LIRSModel:
    """LIRS with S, Q and the non-resident order as plain lists."""

    def __init__(self, policy: LIRS) -> None:
        self.capacity = policy.capacity
        self.lir_capacity = policy.lir_capacity
        self.nonres_limit = policy._nonres_limit
        self.stack = []      # most recent first; stack[-1] is the bottom
        self.queue = []      # resident HIR, oldest first
        self.nonres = []     # non-resident HIR, oldest first
        self.state = {}
        self.lir_count = 0

    def to_top(self, key) -> None:
        self.stack.remove(key)
        self.stack.insert(0, key)

    def request(self, key) -> bool:
        state = self.state.get(key)
        if state == LIR:
            self.to_top(key)
            self.prune()
            return True
        if state == HIR_RES:
            if key in self.stack:
                self.to_top(key)
                self.state[key] = LIR
                self.lir_count += 1
                self.queue.remove(key)
                if self.lir_count > self.lir_capacity:
                    self.demote_bottom()
            else:
                self.stack.insert(0, key)
                self.queue.remove(key)
                self.queue.append(key)
            return True

        if self.lir_count < self.lir_capacity:
            if key in self.stack:
                self.to_top(key)
                if key in self.nonres:
                    self.nonres.remove(key)
            else:
                self.stack.insert(0, key)
            self.state[key] = LIR
            self.lir_count += 1
            return False
        if state == HIR_NONRES and key in self.nonres:
            self.nonres.remove(key)
        if self.lir_count + len(self.queue) >= self.capacity:
            self.evict_from_queue()
        if state == HIR_NONRES:
            self.to_top(key)
            self.state[key] = LIR
            self.lir_count += 1
            self.demote_bottom()
        else:
            self.state[key] = HIR_RES
            self.stack.insert(0, key)
            self.queue.append(key)
        return False

    def evict_from_queue(self) -> None:
        victim = self.queue.pop(0)
        if victim in self.stack:
            self.state[victim] = HIR_NONRES
            self.nonres.append(victim)
            if len(self.nonres) > self.nonres_limit:
                old = self.nonres.pop(0)
                self.stack.remove(old)
                del self.state[old]
        else:
            del self.state[victim]

    def demote_bottom(self) -> None:
        bottom = self.stack.pop()
        assert self.state[bottom] == LIR
        self.state[bottom] = HIR_RES
        self.queue.append(bottom)
        self.lir_count -= 1
        self.prune()

    def prune(self) -> None:
        while self.stack and self.state[self.stack[-1]] != LIR:
            key = self.stack.pop()
            if self.state[key] == HIR_NONRES:
                del self.state[key]
                if key in self.nonres:
                    self.nonres.remove(key)


def replay_both(keys, capacity, hir_fraction):
    policy = LIRS(capacity, hir_fraction=hir_fraction)
    model = _LIRSModel(policy)
    for i, key in enumerate(keys):
        assert policy.request(key) == model.request(key), (i, key)
    return policy, model


@given(family=st.sampled_from(sorted(FAMILIES)),
       seed=st.integers(0, 2**32 - 1),
       capacity=st.integers(2, 40),
       hir_fraction=st.sampled_from([0.01, 0.1, 0.3, 0.5]),
       n=st.integers(1, 1500))
@settings(max_examples=80, deadline=None)
def test_lirs_matches_the_list_model(family, seed, capacity, hir_fraction,
                                     n):
    keys = FAMILIES[family](np.random.default_rng(seed), capacity,
                            n).tolist()
    policy, model = replay_both(keys, capacity, hir_fraction)
    assert list(policy._stack) == model.stack[::-1]
    assert ({key for key in policy._state if policy.is_lir(key)}
            == {key for key, state in model.state.items() if state == LIR})
    assert list(policy._queue) == model.queue
    assert list(policy._nonres) == model.nonres
    assert policy.lir_count == model.lir_count


def test_model_sees_nonresident_promotions_and_reclaims():
    """A seeded run long enough to reach every branch: non-resident
    keys promoted to LIR and the non-resident cap reclaiming the
    oldest entry."""
    keys = np.random.default_rng(0).integers(0, 500, 50_000).tolist()
    policy, model = replay_both(keys, 20, 0.01)
    assert list(policy._stack) == model.stack[::-1]
    assert list(policy._nonres) == model.nonres
    assert len(model.nonres) == policy._nonres_limit
