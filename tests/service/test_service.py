"""CacheService failure paths, all deterministic on a virtual clock.

Every scenario here -- retry/backoff, deadline timeout, serve-stale,
negative caching, breaker open/half-open/closed -- runs without a
single real sleep: time only moves when the test advances the
VirtualClock or the service "sleeps" a backoff on it.
"""

from __future__ import annotations

import pytest

from repro.exec.clock import VirtualClock
from repro.exec.retry import NO_RETRY, RetryPolicy
from repro.policies.lru import LRU
from repro.service.backend import (
    CallableBackend,
    FaultInjectedBackend,
    InMemoryBackend,
)
from repro.service.breaker import OPEN, BreakerConfig
from repro.service.faults import TIMEOUT, BackendFaultPlan
from repro.service.service import (
    ERROR,
    HIT,
    MISS,
    STALE,
    CacheService,
    ServiceConfig,
)


def build_service(plan=None, config=None, capacity=10, clock=None):
    clock = clock or VirtualClock()
    origin = InMemoryBackend()
    backend = (FaultInjectedBackend(origin, plan, clock)
               if plan is not None else origin)
    service = CacheService(LRU(capacity), backend,
                           config or ServiceConfig(), clock=clock)
    return service, origin, clock


def assert_accounting(service):
    snap = service.metrics.snapshot()
    total = (snap["hit"] + snap["miss"] + snap["stale"]
             + snap["shed"] + snap["error"])
    assert total == snap["requests"]


class TestConfigValidation:
    def test_rejects_non_positive_ttl(self):
        with pytest.raises(ValueError, match="ttl must be > 0"):
            ServiceConfig(ttl=0.0)
        with pytest.raises(ValueError, match="ttl must be > 0"):
            ServiceConfig(ttl=-5.0)

    def test_rejects_negative_stale_and_negative_ttl(self):
        with pytest.raises(ValueError, match="stale_ttl"):
            ServiceConfig(stale_ttl=-1.0)
        with pytest.raises(ValueError, match="negative_ttl"):
            ServiceConfig(negative_ttl=-0.1)

    def test_rejects_non_positive_max_inflight(self):
        with pytest.raises(ValueError, match="max_inflight"):
            ServiceConfig(max_inflight=0)
        with pytest.raises(ValueError, match="max_inflight"):
            ServiceConfig(max_inflight=-4)

    def test_rejects_non_positive_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            ServiceConfig(deadline=0.0)

    def test_rejects_wrong_types(self):
        with pytest.raises(TypeError, match="retry"):
            ServiceConfig(retry="3 times please")
        with pytest.raises(TypeError, match="breaker"):
            ServiceConfig(breaker=42)

    def test_service_rejects_non_policy(self):
        with pytest.raises(TypeError, match="EvictionPolicy"):
            CacheService(object(), InMemoryBackend())

    def test_service_rejects_backend_without_fetch(self):
        with pytest.raises(TypeError, match="fetch"):
            CacheService(LRU(4), object())


class TestPolicyConstructorValidation:
    """Bad capacities fail fast with a clear message (not deep in a loop)."""

    def test_zero_and_negative_capacity(self):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            LRU(0)
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            LRU(-3)

    def test_fractional_capacity_no_longer_truncates_silently(self):
        with pytest.raises(ValueError, match="whole number"):
            LRU(2.7)

    def test_non_numeric_capacity(self):
        with pytest.raises(TypeError, match="capacity must be an integer"):
            LRU("large")
        with pytest.raises(TypeError, match="capacity must be an integer"):
            LRU(True)

    def test_integral_float_still_accepted(self):
        assert LRU(4.0).capacity == 4


class TestBasicServing:
    def test_miss_then_hit(self):
        service, origin, _ = build_service()
        first = service.get("a")
        second = service.get("a")
        assert (first.outcome, second.outcome) == (MISS, HIT)
        assert first.value == second.value == "value:a"
        assert first.ok and second.ok
        assert origin.fetch_count("a") == 1
        assert_accounting(service)

    def test_eviction_reaps_the_value_store(self):
        service, origin, _ = build_service(capacity=2)
        for key in ("a", "b", "c"):   # evicts "a" from the LRU
            service.get(key)
        assert not service.contains_fresh("a")
        assert service.get("a").outcome == MISS   # refetched
        assert origin.fetch_count("a") == 2
        assert_accounting(service)

    def test_ttl_expiry_triggers_refetch(self):
        service, origin, clock = build_service(
            config=ServiceConfig(ttl=10.0))
        assert service.get("a").outcome == MISS
        clock.advance(9.0)
        assert service.get("a").outcome == HIT       # still fresh
        clock.advance(1.5)                            # age 10.5 > ttl
        assert service.get("a").outcome == MISS      # refreshed
        assert origin.fetch_count("a") == 2
        assert_accounting(service)

    def test_local_reads_share_one_freshness_rule(self):
        service, _, clock = build_service(
            config=ServiceConfig(ttl=10.0, stale_ttl=5.0))
        service.get("a")
        seen = []
        for step in (0.0, 10.0, 5.0, 0.5):   # ages 0, 10, 15, 15.5
            clock.advance(step)
            peeked = service.peek("a")
            seen.append((peeked and peeked.outcome,
                         service.peek("a", allow_stale=False) is not None,
                         service.holds_copy("a"),
                         service.contains_fresh("a")))
        assert seen == [(HIT, True, True, True),         # fresh
                        (HIT, True, True, True),         # age == ttl
                        (STALE, False, True, False),     # in stale budget
                        (None, False, False, False)]     # too old


class TestRetryAndDeadline:
    def test_retry_succeeds_after_backoff_on_virtual_clock(self):
        plan = BackendFaultPlan().fail("a", call=1)
        service, origin, clock = build_service(
            plan,
            ServiceConfig(retry=RetryPolicy(max_attempts=3,
                                            base_delay=0.2)))
        result = service.get("a")
        assert result.outcome == MISS
        assert result.value == "value:a"
        assert clock.now() == pytest.approx(0.2)   # one backoff, virtual
        snap = service.metrics.snapshot()
        assert snap["fetch_attempts"] == 2
        assert snap["fetch_failures"] == 1

    def test_exhausted_retries_surface_the_last_error(self):
        plan = BackendFaultPlan().fail("a")
        service, _, _ = build_service(
            plan,
            ServiceConfig(retry=RetryPolicy(max_attempts=2,
                                            base_delay=0.1),
                          breaker=None))
        result = service.get("a")
        assert result.outcome == ERROR
        assert not result.ok
        assert "InjectedBackendError" in result.error
        assert_accounting(service)

    def test_slow_fetch_breaches_deadline(self):
        plan = BackendFaultPlan().latency("a", 2.0)
        service, _, _ = build_service(
            plan, ServiceConfig(deadline=1.0, breaker=None))
        result = service.get("a")
        assert result.outcome == ERROR
        assert "BackendTimeout" in result.error

    def test_injected_timeout_fault(self):
        plan = BackendFaultPlan().fail("a", kind=TIMEOUT)
        service, _, _ = build_service(plan, ServiceConfig(breaker=None))
        result = service.get("a")
        assert result.outcome == ERROR
        assert "BackendTimeout" in result.error


class TestServeStale:
    def stale_service(self, **config_kwargs):
        plan = BackendFaultPlan()
        defaults = dict(ttl=10.0, stale_ttl=30.0, breaker=None)
        defaults.update(config_kwargs)
        return build_service(plan, ServiceConfig(**defaults)) + (plan,)

    def test_stale_served_when_backend_fails(self):
        service, _, clock, plan = self.stale_service()
        service.get("a")                      # cached at t=0
        clock.advance(15.0)                   # expired (ttl 10)
        plan.fail("a")                        # backend now failing
        result = service.get("a")
        assert result.outcome == STALE
        assert result.value == "value:a"
        assert result.ok
        assert "InjectedBackendError" in result.error

    def test_staleness_is_bounded(self):
        service, _, clock, plan = self.stale_service()
        service.get("a")
        clock.advance(45.0)                   # beyond ttl + stale_ttl = 40
        plan.fail("a")
        result = service.get("a")
        assert result.outcome == ERROR        # too stale to serve
        assert result.value is None

    def test_no_stale_when_disabled(self):
        service, _, clock, plan = self.stale_service(stale_ttl=0.0)
        service.get("a")
        clock.advance(15.0)
        plan.fail("a")
        assert service.get("a").outcome == ERROR

    def test_successful_refresh_resets_staleness(self):
        service, origin, clock, plan = self.stale_service()
        service.get("a")
        clock.advance(15.0)
        assert service.get("a").outcome == MISS   # healthy refresh
        plan.fail("a")
        clock.advance(15.0)
        assert service.get("a").outcome == STALE  # age counts from refresh
        assert origin.fetch_count("a") == 2


class TestNegativeCaching:
    def test_errors_are_negative_cached(self):
        plan = BackendFaultPlan().fail("a")
        service, origin, clock = build_service(
            plan, ServiceConfig(negative_ttl=5.0, breaker=None))
        backend = service.backend
        first = service.get("a")
        assert first.outcome == ERROR
        attempts_after_first = backend.calls("a")
        second = service.get("a")             # within negative_ttl
        assert second.outcome == ERROR
        assert "negative-cached" in second.error
        assert backend.calls("a") == attempts_after_first  # no new fetch
        assert service.metrics.snapshot()["negative_hits"] == 1

    def test_negative_entry_expires(self):
        plan = BackendFaultPlan().fail("a", call=1)
        service, origin, clock = build_service(
            plan, ServiceConfig(negative_ttl=5.0, breaker=None))
        assert service.get("a").outcome == ERROR
        clock.advance(5.0)                    # negative entry expired
        assert service.get("a").outcome == MISS
        assert origin.fetch_count("a") == 1   # second call succeeded

    def test_success_clears_negative_state(self):
        plan = BackendFaultPlan().fail("a", call=1)
        service, _, clock = build_service(
            plan, ServiceConfig(negative_ttl=2.0, breaker=None))
        service.get("a")                      # error, negative-cached
        clock.advance(2.0)
        assert service.get("a").outcome == MISS
        assert service.get("a").outcome == HIT


class TestBreakerIntegration:
    def breaker_service(self, plan, threshold=3, reset=10.0, **config):
        defaults = dict(
            breaker=BreakerConfig(failure_threshold=threshold,
                                  reset_timeout=reset),
            retry=NO_RETRY)
        defaults.update(config)
        return build_service(plan, ServiceConfig(**defaults))

    def test_breaker_opens_and_fails_fast(self):
        plan = BackendFaultPlan()
        for key in ("a", "b", "c"):
            plan.fail(key)
        service, _, _ = self.breaker_service(plan)
        for key in ("a", "b", "c"):
            assert service.get(key).outcome == ERROR
        assert service.breaker.state == OPEN
        backend = service.backend
        calls_before = sum(backend.calls(k) for k in ("a", "b", "c", "d"))
        result = service.get("d")             # breaker open: no fetch
        assert result.outcome == ERROR
        assert result.error == "circuit breaker open"
        assert sum(backend.calls(k)
                   for k in ("a", "b", "c", "d")) == calls_before

    def test_half_open_probe_recovers(self):
        plan = BackendFaultPlan()
        for key in ("a", "b", "c"):
            plan.fail(key, call=1)
        service, _, clock = self.breaker_service(plan)
        for key in ("a", "b", "c"):
            service.get(key)                  # trip the breaker
        assert service.breaker.state == OPEN
        clock.advance(10.0)                   # cooldown over: half-open
        result = service.get("a")             # probe; call 2 succeeds
        assert result.outcome == MISS
        assert service.breaker.state == "closed"
        transitions = [(src, dst) for _, src, dst
                       in service.breaker_transitions()]
        assert transitions == [("closed", "open"),
                               ("open", "half-open"),
                               ("half-open", "closed")]

    def test_open_breaker_serves_stale(self):
        plan = BackendFaultPlan()
        service, _, clock = self.breaker_service(
            plan, threshold=1, ttl=5.0, stale_ttl=60.0)
        service.get("a")                      # cache at t=0
        clock.advance(6.0)                    # "a" is now expired
        plan.fail("b")
        assert service.get("b").outcome == ERROR   # trips the breaker
        assert service.breaker.state == OPEN
        result = service.get("a")             # degraded: stale, no fetch
        assert result.outcome == STALE
        assert result.error == "circuit open; served stale"
        assert service.backend.calls("a") == 1

    def test_breaker_cuts_retries_short(self):
        # max_attempts=5 but the breaker opens after 2 failures: the
        # leader must stop retrying as soon as allow() says no.
        plan = BackendFaultPlan().fail("a")
        service, _, clock = self.breaker_service(
            plan, threshold=2,
            retry=RetryPolicy(max_attempts=5, base_delay=0.1))
        result = service.get("a")
        assert result.outcome == ERROR
        assert service.backend.calls("a") == 2   # not 5
        assert service.breaker.state == OPEN


class TestMixedAccounting:
    def test_invariant_over_a_mixed_run(self):
        plan = (BackendFaultPlan()
                .fail(3)             # key 3 always errors
                .latency(5, 2.0))    # key 5 breaches the deadline
        service, _, clock = build_service(
            plan,
            ServiceConfig(ttl=50.0, stale_ttl=100.0, negative_ttl=1.0,
                          deadline=1.0,
                          retry=RetryPolicy(max_attempts=2,
                                            base_delay=0.05),
                          breaker=BreakerConfig(failure_threshold=20,
                                                reset_timeout=5.0)))
        for step in range(300):
            service.get(step % 10)
            clock.advance(0.5)
        snap = service.metrics.snapshot()
        assert snap["requests"] == 300
        assert (snap["hit"] + snap["miss"] + snap["stale"]
                + snap["shed"] + snap["error"]) == 300
        assert snap["error"] > 0              # key 3 / key 5 failures
        assert snap["hit"] > 0

    def test_callable_backend_adapter(self):
        service = CacheService(LRU(4), CallableBackend(lambda k: k * 2))
        assert service.get(21).value == 42
