"""Service-layer observability: registry mirrors, breaker gauge, parity."""

from __future__ import annotations

import threading

from repro.exec.clock import VirtualClock
from repro.exec.retry import NO_RETRY
from repro.obs import MetricsRegistry, parse_prometheus_values, to_prometheus
from repro.policies.lru import LRU
from repro.service.backend import FaultInjectedBackend, InMemoryBackend
from repro.service.breaker import OPEN, STATE_VALUES, BreakerConfig
from repro.service.faults import BackendFaultPlan
from repro.service.service import ERROR, CacheService, ServiceConfig


def build_observed_service(plan=None, config=None, capacity=10):
    clock = VirtualClock()
    registry = MetricsRegistry()
    origin = InMemoryBackend()
    backend = (FaultInjectedBackend(origin, plan, clock)
               if plan is not None else origin)
    service = CacheService(LRU(capacity), backend,
                           config or ServiceConfig(), clock=clock,
                           registry=registry)
    return service, registry


class TestOutcomeCounters:
    def test_counters_mirror_raw_snapshot(self):
        service, registry = build_observed_service()
        for key in ("a", "b", "c", "d"):   # 4 misses
            service.get(key)
        for key in ("a", "b", "a"):        # 3 hits
            service.get(key)

        raw = service.metrics.snapshot()
        values = registry.counter_values()
        assert values["service_requests_total{outcome=hit}"] == raw["hit"] == 3
        assert values["service_requests_total{outcome=miss}"] \
            == raw["miss"] == 4
        assert values["service_fetch_attempts_total"] == raw["fetch_attempts"]

    def test_latency_histograms_count_every_request(self):
        service, registry = build_observed_service()
        for key in ("a", "b", "a"):
            service.get(key)
        observed = sum(
            row["count"] for row in registry.snapshot()
            if row["name"] == "service_request_latency_seconds")
        assert observed == 3

    def test_uninstrumented_service_has_no_registry_cost(self):
        clock = VirtualClock()
        service = CacheService(LRU(10), InMemoryBackend(),
                               ServiceConfig(), clock=clock)
        service.get("a")
        assert service.metrics.snapshot()["requests"] == 1


class TestBreakerGauge:
    def test_gauge_tracks_state_transitions(self):
        plan = BackendFaultPlan()
        for key in ("a", "b"):
            plan.fail(key)
        config = ServiceConfig(
            breaker=BreakerConfig(failure_threshold=2, reset_timeout=10.0),
            retry=NO_RETRY)
        service, registry = build_observed_service(plan, config)

        gauge = registry.gauge("service_breaker_state")
        assert gauge.value == STATE_VALUES["closed"]
        assert service.get("a").outcome == ERROR
        assert service.get("b").outcome == ERROR
        assert service.breaker.state == OPEN
        assert gauge.value == STATE_VALUES["open"]


class GateBackend(InMemoryBackend):
    """Blocks fetches of ``"slow"`` until released (an in-flight fetch)."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def fetch(self, key):
        if key == "slow":
            self.entered.set()
            assert self.release.wait(10.0)
        return super().fetch(key)


def spy_on_metrics(service):
    """Record ``(call, outcome, lock held)`` for every metric recorded."""
    seen = []
    for name in ("record", "record_fetch", "record_negative_hit"):
        inner = getattr(service.metrics, name)

        def spy(*args, _name=name, _inner=inner, **kwargs):
            outcome = args[0] if _name == "record" else None
            seen.append((_name, outcome, service._lock.locked()))
            return _inner(*args, **kwargs)

        setattr(service.metrics, name, spy)
    return seen


class TestCriticalSection:
    """Metrics are recorded after ``CacheService._lock`` is released."""

    def assert_unlocked(self, seen, outcome):
        assert ("record", outcome, False) in seen, seen
        assert not any(held for _, _, held in seen), seen

    def test_hit_and_miss(self):
        service, _ = build_observed_service()
        seen = spy_on_metrics(service)
        assert service.get("a").outcome == "miss"
        assert service.get("a").outcome == "hit"
        self.assert_unlocked(seen, "hit")
        self.assert_unlocked(seen, "miss")

    def test_negative_cache(self):
        plan = BackendFaultPlan()
        plan.fail("x")
        service, _ = build_observed_service(
            plan, ServiceConfig(negative_ttl=10.0, breaker=None))
        seen = spy_on_metrics(service)
        assert service.get("x").outcome == ERROR
        result = service.get("x")
        assert result.error.startswith("negative-cached")
        assert ("record_negative_hit", None, False) in seen
        self.assert_unlocked(seen, ERROR)

    def test_shed(self):
        backend = GateBackend()
        service = CacheService(LRU(10), backend,
                               ServiceConfig(max_inflight=1),
                               clock=VirtualClock(),
                               registry=MetricsRegistry())
        seen = spy_on_metrics(service)
        leader = threading.Thread(target=service.get, args=("slow",))
        leader.start()
        try:
            assert backend.entered.wait(10.0)
            assert service.get("other").outcome == "shed"
        finally:
            backend.release.set()
            leader.join(10.0)
        self.assert_unlocked(seen, "shed")

    def test_breaker_open(self):
        plan = BackendFaultPlan()
        plan.fail("y")
        config = ServiceConfig(
            breaker=BreakerConfig(failure_threshold=1, reset_timeout=60.0))
        service, _ = build_observed_service(plan, config)
        seen = spy_on_metrics(service)
        assert service.get("y").outcome == ERROR
        assert service.breaker_open
        result = service.get("z")
        assert result.error == "circuit breaker open"
        self.assert_unlocked(seen, ERROR)


class TestExportParity:
    def test_prometheus_matches_registry_counters(self):
        service, registry = build_observed_service()
        for key in ("a", "b", "a", "a"):
            service.get(key)
        prom = parse_prometheus_values(to_prometheus(registry))
        assert prom['service_requests_total{outcome="hit"}'] == 2
        assert prom['service_requests_total{outcome="miss"}'] == 2
        assert prom["service_fetch_attempts_total"] == \
            registry.counter_values()["service_fetch_attempts_total"]
