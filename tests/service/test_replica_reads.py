"""``CacheService.holds_copy`` answers without the service lock.

The cluster asks every replica ``holds_copy(key)`` on a hot-key hit.
The answer is two atomic reads -- the value store's ``get`` and the
policy's ``__contains__`` -- plus a clock read only when a TTL is set,
so it takes no lock.  These tests pin that it takes none, that it
agrees with ``peek(key) is not None`` through the fresh, stale and
expired windows, and that for every registry policy it can race
``get``/``put`` traffic on one shard without raising or breaking the
shard's outcome accounting.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.base import OfflinePolicy
from repro.exec.clock import VirtualClock
from repro.policies.lru import LRU
from repro.policies.registry import REGISTRY, make
from repro.service.backend import InMemoryBackend
from repro.service.service import OUTCOMES, CacheService, ServiceConfig
from repro.traces.synthetic import zipf_trace
from tests.conftest import CountingLock

#: Every policy a shard can serve with (the sized-only GDSF and
#: Sized-QD builds need a size per request, which a service never
#: passes).
ONLINE = sorted(name for name in REGISTRY
                if not issubclass(type(make(name, 10)), OfflinePolicy))


class CountingClock(VirtualClock):
    """A virtual clock that counts its reads."""

    def __init__(self):
        super().__init__()
        self.reads = 0

    def now(self):
        self.reads += 1
        return super().now()


def service_on(config, capacity=4, clock=None):
    clock = clock or VirtualClock()
    service = CacheService(LRU(capacity), InMemoryBackend(), config,
                           clock=clock)
    return service, clock


@pytest.mark.parametrize("config", [
    ServiceConfig(),
    ServiceConfig(ttl=10.0),
    ServiceConfig(ttl=10.0, stale_ttl=5.0),
], ids=["no-ttl", "ttl", "ttl+stale"])
def test_holds_copy_takes_no_lock(config):
    service, clock = service_on(config)
    service.get("a")
    service._lock = lock = CountingLock()
    for step in (0.0, 10.0, 5.0, 0.5):
        clock.advance(step)
        for key in ("a", "absent"):
            service.holds_copy(key)
    assert lock.acquisitions == 0
    service.peek("a")          # the counting lock is the one in use
    assert lock.acquisitions == 1


@pytest.mark.parametrize("config", [
    ServiceConfig(),
    ServiceConfig(ttl=10.0),
    ServiceConfig(ttl=10.0, stale_ttl=5.0),
], ids=["no-ttl", "ttl", "ttl+stale"])
def test_holds_copy_agrees_with_peek(config):
    """Fresh, at the TTL, in the stale budget, past it; then evicted
    and invalidated copies."""
    service, clock = service_on(config)
    service.get("a")
    service.get("b")
    answers = set()
    for _ in range(70):                       # ages 0 .. 17.25
        for key in ("a", "b", "absent"):
            held = service.holds_copy(key)
            assert held == (service.peek(key) is not None), \
                (key, clock.now())
            answers.add(held)
        clock.advance(0.25)
    assert answers == {True, False}
    service.put("a", "fresh")
    for key in ("c", "d", "e", "f"):          # evicts "a" from the LRU
        service.get(key)
    assert "a" not in service.policy
    assert service.holds_copy("a") is False
    assert service.peek("a") is None
    assert service.holds_copy("f") is True
    service.invalidate("f")
    assert service.holds_copy("f") is False
    assert service.peek("f") is None


@pytest.mark.parametrize("config, reads", [
    (ServiceConfig(), 0),
    (ServiceConfig(ttl=10.0), 1),
], ids=["no-ttl", "ttl"])
def test_holds_copy_reads_the_clock_only_with_a_ttl(config, reads):
    clock = CountingClock()
    service, _ = service_on(config, clock=clock)
    service.get("a")
    before = clock.reads
    assert service.holds_copy("a") is True
    assert clock.reads - before == reads
    before = clock.reads
    assert service.holds_copy("absent") is False
    assert clock.reads == before


@pytest.mark.timeout(120)
@pytest.mark.parametrize("name", ONLINE)
def test_holds_copy_races_gets_and_puts(name):
    """Replica checks race one shard's traffic under a 10 us switch
    interval: nothing raises, every get ends in exactly one outcome,
    and once the traffic stops the lock-free answer is the locked one.
    """
    clock = VirtualClock()
    service = CacheService(make(name, 48), InMemoryBackend(),
                           ServiceConfig(ttl=2.0, stale_ttl=1.0),
                           clock=clock)
    keys = zipf_trace(160, 3_000, 0.9,
                      np.random.default_rng(17)).tolist()
    writers = 3
    stop = threading.Event()
    errors = []
    gets = [0] * writers
    seen = {True: 0, False: 0}

    def traffic(index):
        try:
            for step, key in enumerate(keys[index::writers]):
                if step % 5 == 4:
                    service.put(key, f"replica:{key}")
                else:
                    service.get(key)
                    gets[index] += 1
                if step % 25 == 24:
                    clock.advance(0.125)   # copies age through the TTL
        except BaseException as exc:   # pragma: no cover - failure
            errors.append(exc)

    def replica_checks():
        try:
            while not stop.is_set():
                for key in range(160):
                    seen[service.holds_copy(key)] += 1
        except BaseException as exc:   # pragma: no cover - failure
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        checkers = [threading.Thread(target=replica_checks, daemon=True)
                    for _ in range(2)]
        pool = [threading.Thread(target=traffic, args=(index,),
                                 daemon=True) for index in range(writers)]
        for thread in checkers + pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60.0)
        stop.set()
        for thread in checkers:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in checkers + pool)
    assert not errors, f"{name}: {errors[0]!r}"
    snap = service.metrics.snapshot()
    assert snap["requests"] == sum(gets)
    assert sum(snap[outcome] for outcome in OUTCOMES) == sum(gets)
    assert seen[True] > 0 and seen[False] > 0
    for key in range(160):
        assert service.holds_copy(key) == \
            (service.peek(key) is not None), (name, key)
