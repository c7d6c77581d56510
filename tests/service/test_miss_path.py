"""A miss pays for its fetch, its admission and its release, once each.

A successful miss takes the service lock twice: once to route it, once
to admit and store the fetched value and release its flight.  It takes
the ledger lock once, to record the request together with the fetch
attempt that served it.  A hit takes each lock once, and a failed fetch
three and two times.  The fault-injecting backend skips its schedule
while the plan is empty, but keeps counting calls and reads the plan
afresh on every fetch, so faults added mid-run land where the same plan
declared up front puts them.
"""

from __future__ import annotations

import pytest

from repro.exec.clock import VirtualClock
from repro.exec.retry import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.policies.lru import LRU
from repro.service.backend import FaultInjectedBackend, InMemoryBackend
from repro.service.faults import BackendFaultPlan
from repro.service.service import (
    ERROR,
    HIT,
    MISS,
    CacheService,
    ServiceConfig,
)
from tests.conftest import CountingLock


@pytest.fixture(params=[False, True], ids=["bare", "registry"])
def counted(request):
    """Build a service whose service and ledger locks count."""
    def build(plan=None, config=None):
        clock = VirtualClock()
        backend = FaultInjectedBackend(InMemoryBackend(),
                                       plan or BackendFaultPlan(), clock)
        service = CacheService(
            LRU(10), backend, config or ServiceConfig(), clock=clock,
            registry=MetricsRegistry() if request.param else None)
        recount(service)
        return service
    return build


def recount(service):
    service._lock = CountingLock()
    service.metrics._lock = CountingLock()


def locks(service):
    """``(service lock, ledger lock)`` acquisitions so far."""
    return (service._lock.acquisitions,
            service.metrics._lock.acquisitions)


class TestLocksPerRequest:
    def test_a_lone_miss_admits_and_releases_under_one_lock(self, counted):
        service = counted()
        assert service.get("a").outcome == MISS
        assert locks(service) == (2, 1)
        snap = service.metrics.snapshot()
        assert (snap["miss"], snap["fetch_attempts"]) == (1, 1)
        assert snap["fetch_failures"] == 0
        assert service._flights == {}
        assert service.contains_fresh("a")

    def test_a_hit_takes_each_lock_once(self, counted):
        service = counted()
        service.get("a")
        recount(service)
        assert service.get("a").outcome == HIT
        assert locks(service) == (1, 1)

    def test_a_failed_fetch_takes_three_and_two(self, counted):
        service = counted(BackendFaultPlan().fail("x"))
        result = service.get("x")
        assert result.outcome == ERROR
        assert locks(service) == (3, 2)
        snap = service.metrics.snapshot()
        assert (snap["fetch_attempts"], snap["fetch_failures"]) == (1, 1)
        assert service._flights == {}

    def test_a_retried_miss_counts_both_attempts(self, counted):
        service = counted(BackendFaultPlan().fail("a", call=1),
                          ServiceConfig(retry=RetryPolicy(max_attempts=2,
                                                          base_delay=0.1)))
        assert service.get("a").outcome == MISS
        # The failed attempt is counted alone; the one that served,
        # with the request.
        assert locks(service) == (2, 2)
        snap = service.metrics.snapshot()
        assert (snap["fetch_attempts"], snap["fetch_failures"]) == (2, 1)


class CountingClock(VirtualClock):
    def __init__(self):
        super().__init__()
        self.reads = 0

    def now(self):
        self.reads += 1
        return super().now()


def test_an_empty_plan_is_not_consulted():
    class Untouchable(BackendFaultPlan):
        def _refuse(self, *args):
            raise AssertionError("an empty plan was consulted")

        latency_for = fault_for = in_outage = _refuse

    clock = CountingClock()
    backend = FaultInjectedBackend(InMemoryBackend(), Untouchable(), clock)
    assert [backend.fetch("k") for _ in range(3)] == ["value:k"] * 3
    assert backend.calls("k") == 3
    assert clock.reads == 0


#: Requests before the mid-run plan gains its entries, then after.
SWITCH = 6
STEPS = ([("a", 0.1), ("b", 0.1)] * 3
         + [("a", 0.1), ("b", 0.1), ("c", 0.1), ("d", 0.1)] * 6)


def full_plan(plan):
    """Entries that only touch requests after :data:`SWITCH`.

    ``a`` and ``b`` keep a zero per-key latency, so the base latency
    only slows ``c`` and ``d``, which arrive after the switch.
    """
    return (plan.fail("a", call=5)
            .latency("a", 0.0)
            .latency("b", 0.0)
            .latency("b", 0.25, call=5)
            .base_latency(0.05)
            .outage(2.0, 2.3))


def replay(plan, mid_run=False):
    """``(outcomes, calls per key, clock after each request)``."""
    clock = VirtualClock()
    backend = FaultInjectedBackend(InMemoryBackend(), plan, clock)
    service = CacheService(LRU(4), backend, ServiceConfig(breaker=None),
                           clock=clock)
    outcomes, times = [], []
    for index, (key, gap) in enumerate(STEPS):
        if mid_run and index == SWITCH:
            full_plan(plan)
        clock.advance(gap)
        service.invalidate(key)          # every request fetches
        result = service.get(key)
        outcomes.append((result.outcome, result.error))
        times.append(clock.now())
    calls = {key: backend.calls(key) for key in "abcd"}
    return outcomes, calls, times


def test_a_plan_that_grows_mid_run_acts_as_declared_up_front():
    up_front = replay(full_plan(BackendFaultPlan()))
    assert replay(BackendFaultPlan(), mid_run=True) == up_front
    outcomes, calls, times = up_front
    errors = [error for outcome, error in outcomes if outcome == ERROR]
    assert any("(call 5)" in error for error in errors)     # a's 5th
    assert any("outage" in error for error in errors)
    assert calls == {"a": 9, "b": 9, "c": 6, "d": 6}
    # Before the switch nothing is scheduled; after it, b's 5th fetch
    # and every fetch of c and d take virtual time.
    assert times[SWITCH - 1] == pytest.approx(0.1 * SWITCH)
    assert times[-1] > 0.1 * len(STEPS) + 0.25 + 12 * 0.05 - 1e-9
