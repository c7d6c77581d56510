"""A policy calls a listener only for the events its class overrides.

An eviction-only listener -- the service's store reaper, the tier's
eviction buffer, the QD wrappers' forwarder -- must see every eviction,
in order, and must never be called on a hit, a promotion, an admission
or a ghost hit.  The property runs over every online policy of the
registry and every sized one, next to a full :class:`CacheTracer` whose
eviction stream is the oracle.
"""

import numpy as np
import pytest

from repro.core.base import CacheListener, OfflinePolicy
from repro.obs.tracer import EVICT, CacheTracer
from repro.policies.registry import REGISTRY, SIZED_REGISTRY, make, make_sized
from repro.traces.synthetic import zipf_trace
from tests.conftest import zipf_pareto_trace

ONLINE = sorted(name for name in REGISTRY
                if not issubclass(type(make(name, 10)), OfflinePolicy))
SIZED = sorted(SIZED_REGISTRY)
LENGTH = 4_000


class EvictionsOnly(CacheListener):
    def __init__(self):
        self.evicted = []

    def on_evict(self, key, weight=1):
        self.evicted.append(key)


def raise_on(event):
    def handler(self, *args, **kwargs):
        raise AssertionError(f"{event} reached an eviction-only listener")
    return handler


def replay(name, sized):
    """Replay one seeded trace with both listeners attached."""
    if sized:
        keys, sizes = zipf_pareto_trace(5, length=LENGTH)
        policy = make_sized(name, 60_000)
    else:
        keys = zipf_trace(300, LENGTH, 0.9,
                          np.random.default_rng(5)).tolist()
        sizes = None
        policy = make(name, 40)
    evictions = EvictionsOnly()
    tracer = CacheTracer(ring=LENGTH)
    policy.add_listener(evictions)
    policy.add_listener(tracer)
    for index, key in enumerate(keys):
        if sizes is None:
            policy.request(key)
        else:
            policy.request(key, sizes[index])
    return evictions, tracer


CASES = [(name, False) for name in ONLINE] + [(name, True) for name in SIZED]


@pytest.mark.parametrize("name,sized", CASES,
                         ids=[name for name, _ in CASES])
def test_eviction_only_listener_sees_exactly_the_evictions(name, sized,
                                                           monkeypatch):
    evictions, tracer = replay(name, sized)
    assert evictions.evicted == [event.key for event in tracer.events(EVICT)]
    assert tracer.counts[EVICT] == len(evictions.evicted) > 0

    # The base class's no-op handlers are never called: the same replay
    # passes with each of them raising.
    for event in ("on_hit", "on_promote", "on_admit", "on_ghost_hit"):
        monkeypatch.setattr(CacheListener, event, raise_on(event))
    again, _ = replay(name, sized)
    assert again.evicted == evictions.evicted
