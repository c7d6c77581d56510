"""Request tracing through the service layer and the open-loop engine.

The service annotates its root/child spans with the interesting control
flow -- retries, breaker transitions, coalescing, serve-stale -- and the
open-loop engine owns the per-request roots (queue wait, promotion-lock
time, admission drops).  These tests pin both down on a VirtualClock.
"""

from __future__ import annotations

import threading

from repro.exec.clock import VirtualClock
from repro.exec.retry import NO_RETRY, RetryPolicy
from repro.obs import MetricsRegistry
from repro.obs.reqtrace import (
    KEEP_OUTCOME,
    NOT_SAMPLED,
    RequestTracer,
    TailRules,
)
from repro.policies.lru import LRU
from repro.service.backend import (
    Backend,
    FaultInjectedBackend,
    InMemoryBackend,
)
from repro.service.breaker import BreakerConfig
from repro.service.faults import BackendFaultPlan
from repro.service.loadgen import run_open_load
from repro.service.overload import (
    DROPPED,
    AdmissionQueue,
    StaticLimiter,
    StepArrivals,
)
from repro.service.service import ERROR, CacheService, ServiceConfig
from tests.conftest import CountingLock

KEEP_ALL = TailRules(keep_fraction=1.0)


def build_traced_service(config=None, plan=None, capacity=50,
                         tail=KEEP_ALL):
    clock = VirtualClock()
    tracer = RequestTracer(sample=1.0, seed=0, clock=clock, tail=tail)
    origin = InMemoryBackend()
    backend = (FaultInjectedBackend(origin, plan, clock)
               if plan is not None else origin)
    service = CacheService(LRU(capacity), backend,
                           config or ServiceConfig(), clock=clock,
                           tracer=tracer)
    return service, tracer


def spans_by_name(trace):
    by_name = {}
    for span in trace.spans:
        by_name.setdefault(span.name, []).append(span)
    return by_name


class TestServiceSpans:
    def test_every_get_roots_a_service_span(self):
        service, tracer = build_traced_service()
        service.get("a")              # miss
        service.get("a")              # hit
        traces = list(tracer.kept)
        assert [t.outcome for t in traces] == ["miss", "hit"]
        for trace in traces:
            (root,) = spans_by_name(trace)["service.get"]
            assert root.args["key"] == "'a'"
            assert root.args["outcome"] == trace.outcome

    def test_miss_records_fetch_child_span(self):
        service, tracer = build_traced_service()
        service.get("a")
        (trace,) = tracer.kept
        (fetch,) = spans_by_name(trace)["service.fetch"]
        assert fetch.args["attempt"] == 1
        root = spans_by_name(trace)["service.get"][0]
        assert fetch.parent_id == root.span_id

    def test_retry_attempts_become_spans_and_notes(self):
        plan = BackendFaultPlan().fail("a", call=1)
        service, tracer = build_traced_service(
            config=ServiceConfig(
                retry=RetryPolicy(max_attempts=3, base_delay=0.01)),
            plan=plan)
        assert service.get("a").outcome == "miss"
        (trace,) = tracer.kept
        fetches = spans_by_name(trace)["service.fetch"]
        assert [f.args["attempt"] for f in fetches] == [1, 2]
        assert "error" in fetches[0].args
        root = spans_by_name(trace)["service.get"][0]
        assert root.args["retries"] == 1

    def test_breaker_open_marks_the_trace(self):
        plan = BackendFaultPlan()
        for key in ("a", "b", "c"):
            plan.fail(key)
        service, tracer = build_traced_service(
            config=ServiceConfig(
                breaker=BreakerConfig(failure_threshold=2,
                                      reset_timeout=10.0),
                retry=NO_RETRY),
            plan=plan, tail=TailRules())
        assert service.get("a").outcome == ERROR
        assert service.get("b").outcome == ERROR   # trips the breaker
        assert service.get("c").outcome == ERROR   # fast-failed, open
        traces = list(tracer.kept)
        assert all(t.keep == KEEP_OUTCOME for t in traces)
        # The trip is annotated on the request that caused it...
        tripping = spans_by_name(traces[1])["service.get"][0]
        assert "closed->open" in tripping.args["breaker_transitions"]
        # ...and the fast-failed request notes the open breaker.
        rejected = spans_by_name(traces[2])["service.get"][0]
        assert rejected.args["breaker"] == "open"
        assert "breaker-open" in traces[2].marks

    def test_negative_cache_annotated(self):
        plan = BackendFaultPlan().fail("ghost")
        service, tracer = build_traced_service(
            config=ServiceConfig(negative_ttl=5.0, retry=NO_RETRY),
            plan=plan)
        assert service.get("ghost").outcome == ERROR
        assert service.get("ghost").outcome == ERROR  # negative cache
        first, second = list(tracer.kept)
        assert spans_by_name(first)["service.get"][0].args[
            "negative_cached"] is True
        assert spans_by_name(second)["service.get"][0].args[
            "negative_cache"] is True

    def test_followers_link_to_the_leaders_trace(self):
        gate = threading.Event()
        entered = threading.Event()

        class GateBackend(Backend):
            def __init__(self):
                self.origin = InMemoryBackend()

            def fetch(self, key):
                entered.set()
                assert gate.wait(30.0), "test gate never opened"
                return self.origin.fetch(key)

        tracer = RequestTracer(sample=1.0, seed=0, tail=KEEP_ALL)
        service = CacheService(LRU(10), GateBackend(), ServiceConfig(),
                               tracer=tracer)
        leader = threading.Thread(target=service.get, args=("hot",),
                                  daemon=True)
        leader.start()
        assert entered.wait(30.0)
        follower = threading.Thread(target=service.get, args=("hot",),
                                    daemon=True)
        follower.start()
        # Deterministic rendezvous: wait until the follower has joined
        # the flight before releasing the leader.
        deadline = [30.0]
        while service.metrics.snapshot()["coalesced"] < 1:
            deadline[0] -= 0.01
            assert deadline[0] > 0, "follower never coalesced"
            threading.Event().wait(0.01)
        gate.set()
        leader.join(30.0)
        follower.join(30.0)
        traces = {t.trace_id: t for t in tracer.kept}
        assert len(traces) == 2
        followed = next(t for t in traces.values()
                        if spans_by_name(t)["service.get"][0].args
                        .get("coalesced"))
        led = next(t for t in traces.values() if t is not followed)
        root = spans_by_name(followed)["service.get"][0]
        assert root.args["leader_trace"] == led.trace_id

    def test_untraced_service_unchanged(self):
        clock = VirtualClock()
        service = CacheService(LRU(10), InMemoryBackend(),
                               ServiceConfig(), clock=clock)
        assert service.get("a").outcome == "miss"
        assert service.get("a").outcome == "hit"


    def test_not_sampled_get_builds_no_span_arguments(self):
        """A request the caller's sampler passed over stays dark
        without the key's repr or the tracer's lock."""

        class Key(str):
            reprs = 0

            def __repr__(self):
                Key.reprs += 1
                return str.__repr__(self)

        service, tracer = build_traced_service()
        tracer._lock = lock = CountingLock()
        key = Key("a")
        assert service.get(key, ctx=NOT_SAMPLED).outcome == "miss"
        assert service.get(key, ctx=NOT_SAMPLED).outcome == "hit"
        assert Key.reprs == 0 and lock.acquisitions == 0
        assert tracer.summary()["requests"] == 0
        service.get(key)           # a root of its own: sampled, traced
        assert Key.reprs == 1 and lock.acquisitions > 0


class TestExemplars:
    def test_latency_exemplar_resolves_to_a_kept_trace(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        tracer = RequestTracer(sample=1.0, seed=0, clock=clock,
                               tail=TailRules(), registry=registry)
        service = CacheService(LRU(10), InMemoryBackend(),
                               ServiceConfig(), clock=clock,
                               registry=registry, tracer=tracer)
        for key in ("a", "b", "a"):
            service.get(key)
        exemplar_ids = {
            trace_id
            for row in registry.snapshot()
            for _bound, trace_id, _value in row.get("exemplars", ())}
        assert exemplar_ids                      # first-wins per bucket
        kept_ids = {row["trace_id"] for row in tracer._rows()}
        assert exemplar_ids <= kept_ids          # no dangling exemplars


class TestEngineRoots:
    #: 25 hot keys inside a 50-entry LRU: hits (and their promotions)
    #: dominate, so the serialised lock timeline saturates under the
    #: step peak and queue-wait becomes visible.
    KEYS = [index % 25 for index in range(5000)]

    def run_overloaded(self, deadline=None, rate=100.0, peak=900.0):
        service, tracer = build_traced_service(
            tail=TailRules(latency_quantile=0.9,
                           min_latency_samples=16))
        schedule = StepArrivals(rate=rate, duration=8.0,
                                peak_rate=peak, seed=3)
        queue = AdmissionQueue(capacity=64, deadline=deadline)
        report = run_open_load(service, self.KEYS, schedule,
                               queue=queue, limiter=StaticLimiter(4),
                               tracer=tracer)
        return report, tracer

    def test_engine_owns_request_roots_with_queue_wait(self):
        report, tracer = self.run_overloaded()
        roots = [t for t in tracer.kept if t.name == "request"]
        assert roots, "overload run kept no engine roots"
        slow = max(roots, key=lambda t: t.latency)
        names = spans_by_name(slow)
        assert "queue.wait" in names
        assert "service.get" in names
        assert any("promotion.lock" in spans_by_name(t)
                   for t in roots)               # LRU promotes on hit
        # Mid-stack service roots never appear: the engine propagates
        # NOT_SAMPLED for requests that lost the head coin flip.
        assert all(t.name == "request" for t in tracer.kept)
        # Every root the tracer saw came from the engine, and the
        # engine never traces queue-full sheds -- so the request count
        # is bounded by what the schedule offered.
        assert 0 < tracer.summary()["requests"] <= report.offered

    def test_deadline_drops_keep_dropped_roots(self):
        report, tracer = self.run_overloaded(deadline=0.05)
        assert report.outcomes.get(DROPPED, 0) > 0
        drops = [t for t in tracer.kept if t.outcome == DROPPED]
        assert drops
        for trace in drops:
            (wait,) = spans_by_name(trace)["queue.wait"]
            assert wait.args["reason"] == "deadline"
            assert trace.keep == KEEP_OUTCOME

    def test_traced_run_matches_untraced_results(self):
        def run(traced):
            clock = VirtualClock()
            tracer = (RequestTracer(sample=1.0, seed=0, clock=clock)
                      if traced else None)
            service = CacheService(LRU(50), InMemoryBackend(),
                                   ServiceConfig(), clock=clock,
                                   tracer=tracer)
            schedule = StepArrivals(rate=100.0, duration=8.0,
                                    peak_rate=900.0, seed=3)
            return run_open_load(service, self.KEYS, schedule,
                                 queue=AdmissionQueue(capacity=64),
                                 limiter=StaticLimiter(4),
                                 tracer=tracer)

        baseline, traced = run(False), run(True)
        assert baseline.outcomes == traced.outcomes
        assert baseline.served == traced.served
        assert baseline.lock_busy == traced.lock_busy
        assert baseline.served_latency_p99 == traced.served_latency_p99
