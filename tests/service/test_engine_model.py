"""The open-loop engine replays the single-heap event loop exactly.

``run_open_loop`` reads its non-decreasing schedule in order and keeps
only the in-flight completions on a heap; the next event is the next
arrival unless the earliest completion is strictly earlier.
:func:`single_heap_loop` is the design it replaced, kept here as the
reference: every arrival and completion on one heap of ``(time, seq,
kind, payload)``, where an arrival's lower sequence number wins a tie,
and a dispatch pass after every event.

Generated cases put arrivals on a dyadic grid, so completions land
exactly on arrivals; they also draw all-equal (closed-loop) lists and
bursts over a full queue, fifo, lifo and drop-oldest queues with and
without deadlines, static and AIMD limiters, a promotions probe, a
seeded tracer and a registry with a time series.  Both loops must give
the same report, the same get calls (each key and its trace context),
the same probe calls, the same kept traces and the same metrics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.clock import VirtualClock
from repro.obs import MetricsRegistry, TimeSeriesRecorder
from repro.obs.metrics import percentile
from repro.obs.reqtrace import NOT_SAMPLED, RequestTracer, TailRules
from repro.service.overload import (
    DROPPED,
    QUEUE_POLICIES,
    AdmissionQueue,
    AIMDLimiter,
    AimdConfig,
    OpenLoadReport,
    ServiceCostModel,
    StaticLimiter,
    _OverloadObs,
    run_open_loop,
)

#: A dyadic time unit: sums of a few units are exact floats, so a
#: completion can fall on exactly the instant of an arrival.
UNIT = 2.0 ** -6

_ARRIVAL = 0
_DEPARTURE = 1


def single_heap_loop(get, arrivals, keys, clock, queue=None, limiter=None,
                     cost=None, promotions_probe=None, retry_budget=None,
                     timeseries=None, registry=None, metric_labels=None,
                     tracer=None) -> OpenLoadReport:
    """The reference engine: arrivals and completions on one heap."""
    if queue is None:
        queue = AdmissionQueue(capacity=1024)
    if limiter is None:
        limiter = StaticLimiter(8)
    cost = cost or ServiceCostModel()
    obs = _OverloadObs(registry, metric_labels)
    outcomes: Dict[str, int] = {DROPPED: 0, "shed": 0}
    sojourns: List[float] = []
    delays: List[float] = []
    events: List[Tuple[float, int, int, Any]] = []
    seq = 0
    inflight = 0
    lock_free_at = 0.0
    lock_busy = 0.0
    max_depth = 0
    waiting = queue._entries
    limit = min_limit_seen = limiter.limit
    promotions_before = promotions_probe() if promotions_probe else 0
    promotions_seen = promotions_before

    duration = float(arrivals[-1]) if len(arrivals) else 0.0
    origin = clock.now()
    for index, at in enumerate(arrivals):
        events.append((origin + float(at), seq, _ARRIVAL,
                       keys[index % len(keys)]))
        seq += 1
    heapq.heapify(events)
    offered = len(events)

    def count(outcome: str) -> None:
        outcomes[outcome] = outcomes.get(outcome, 0) + 1

    def drop(entry, reason: str = "deadline") -> None:
        count(DROPPED)
        if obs.registry is not None:
            obs.dropped.inc()
        if tracer is not None:
            now = clock.now()
            root = tracer.start("request", start=entry.arrived,
                                key=repr(entry.key))
            if root is not None:
                root.add_span("queue.wait", entry.arrived, now,
                              reason=reason)
                root.end(outcome=DROPPED, at=now)

    def dispatch(now: float) -> None:
        nonlocal inflight, lock_free_at, lock_busy, seq, promotions_seen
        while waiting and inflight < limit:
            entry, expired = queue.take(now)
            for dead in expired:
                drop(dead)
            if entry is None:
                break
            delay = now - entry.arrived
            delays.append(delay)
            root = (tracer.start("request", start=entry.arrived,
                                 key=repr(entry.key))
                    if tracer is not None else None)
            if root is not None and delay > 0.0:
                root.add_span("queue.wait", entry.arrived, now,
                              depth=len(waiting))
            if tracer is not None:
                result = get(entry.key,
                             ctx=root.ctx if root is not None
                             else NOT_SAMPLED)
            else:
                result = get(entry.key)
            promos = 0
            if promotions_probe:
                reading = promotions_probe()
                promos = reading - promotions_seen
                promotions_seen = reading
            count(result.outcome)
            if obs.registry is not None and getattr(result, "ok", False):
                obs.served.inc()
            now_after = clock.now()
            work_start = max(now, now_after)
            lock_time = cost.lock_time(promos)
            completion = work_start + cost.parallel_time(result.outcome)
            if lock_time > 0.0:
                lock_start = max(work_start, lock_free_at)
                lock_free_at = lock_start + lock_time
                lock_busy += lock_time
                completion = max(completion, lock_free_at)
                if root is not None:
                    root.add_span("promotion.lock", lock_start,
                                  lock_free_at, promotions=promos,
                                  waited=round(lock_start - work_start, 9))
            if root is not None:
                root.end(outcome=result.outcome, at=completion)
            sojourns.append(completion - entry.arrived)
            heapq.heappush(events, (completion, seq, _DEPARTURE, delay))
            seq += 1
            inflight += 1

    while events:
        at, _, kind, payload = heapq.heappop(events)
        clock.sleep_until(at)
        now = clock.now()
        if kind == _ARRIVAL:
            if obs.registry is not None:
                obs.offered.inc()
            admitted, displaced = queue.offer(payload, now)
            if displaced is not None:
                drop(displaced, reason="displaced")
            if not admitted:
                count("shed")
                if obs.registry is not None:
                    obs.shed.inc()
        else:
            inflight -= 1
            limiter.on_complete(payload, now)
            limit = limiter.limit
            if limit < min_limit_seen:
                min_limit_seen = limit
        dispatch(now)
        if len(waiting) > max_depth:
            max_depth = len(waiting)
        if obs.registry is not None:
            obs.depth.set(len(waiting))
            obs.limit.set(limit)
        if timeseries is not None:
            timeseries.maybe_sample(now)

    if len(arrivals) and arrivals[0] == arrivals[-1]:
        duration = clock.now() - (origin + float(arrivals[0]))
    return OpenLoadReport(
        offered=offered,
        outcomes=dict(outcomes),
        duration=duration,
        served_latency_p50=percentile(sojourns, 0.50),
        served_latency_p99=percentile(sojourns, 0.99),
        queue_delay_p50=percentile(delays, 0.50),
        queue_delay_p99=percentile(delays, 0.99),
        max_queue_depth=max_depth,
        final_limit=limiter.limit,
        min_limit_seen=min_limit_seen,
        limiter_adjustments=len(getattr(limiter, "adjustments", ())),
        lock_busy=lock_busy,
        promotions=promotions_seen - promotions_before,
        retries_granted=retry_budget.granted if retry_budget else 0,
        retries_denied=retry_budget.denied if retry_budget else 0,
    )


class Result:
    __slots__ = ("outcome", "ok")

    def __init__(self, outcome: str, ok: bool) -> None:
        self.outcome = outcome
        self.ok = ok


class TwoSlotService:
    """A two-entry LRU behind ``get``: a hit promotes, a miss fetches
    for ``fetch_time`` virtual seconds (so get() may move the clock),
    and key 0 always fails.  Logs each call and each probe read."""

    def __init__(self, clock: VirtualClock, fetch_time: float) -> None:
        self.clock = clock
        self.fetch_time = fetch_time
        self.cached: List[int] = []          # most recent last
        self.promotions = 0
        self.calls: List[Tuple[int, Any]] = []
        self.probes = 0

    def get(self, key: int, **kwargs) -> Result:
        ctx = kwargs.get("ctx")
        # No context, an unsampled one, or the sampled trace's id.
        self.calls.append((key, "none" if "ctx" not in kwargs
                           else False if ctx is NOT_SAMPLED
                           else ctx.trace_id))
        if key == 0:
            return Result("error", False)
        if key in self.cached:
            self.cached.remove(key)
            self.cached.append(key)
            self.promotions += 1
            return Result("hit", True)
        self.cached.append(key)
        del self.cached[:-2]
        if self.fetch_time:
            self.clock.sleep(self.fetch_time)
        return Result("miss", True)

    def probe(self) -> int:
        self.probes += 1
        return self.promotions


@dataclass(frozen=True)
class Case:
    arrivals: Tuple[float, ...]
    keys: Tuple[int, ...]
    start: float
    capacity: int
    policy: str
    deadline: Optional[float]
    limiter: Tuple[Any, ...]        # ("static", limit) or ("aimd", config)
    cost: ServiceCostModel
    fetch_time: float
    probe: bool
    tracer: Optional[Tuple[float, int, float]]   # (sample, seed, keep)
    metrics: bool

    def make_limiter(self):
        kind, arg = self.limiter
        return StaticLimiter(arg) if kind == "static" else AIMDLimiter(arg)


def replay(loop, case: Case) -> Dict[str, Any]:
    """Everything one loop observably did on a fresh setup."""
    clock = VirtualClock(start=case.start)
    service = TwoSlotService(clock, case.fetch_time)
    tracer = None
    if case.tracer is not None:
        sample, seed, keep = case.tracer
        tracer = RequestTracer(sample=sample, seed=seed, clock=clock,
                               tail=TailRules(keep_fraction=keep))
    registry = MetricsRegistry() if case.metrics else None
    series = (TimeSeriesRecorder(registry, cadence=4 * UNIT)
              if registry is not None else None)
    report = loop(
        service.get, list(case.arrivals), list(case.keys), clock,
        queue=AdmissionQueue(case.capacity, case.policy, case.deadline),
        limiter=case.make_limiter(), cost=case.cost,
        promotions_probe=service.probe if case.probe else None,
        timeseries=series, registry=registry,
        metric_labels={"cell": "model"} if registry is not None else None,
        tracer=tracer)
    report.check_conservation()
    return {
        "report": report,
        "outcome_order": list(report.outcomes),
        "calls": service.calls,
        "probes": service.probes,
        "clock": clock.now(),
        "traces": tracer.to_jsonl() if tracer is not None else None,
        "tracer": tracer.summary() if tracer is not None else None,
        "metrics": registry.snapshot() if registry is not None else None,
        "series": series.to_rows() if series is not None else None,
    }


@st.composite
def schedules(draw) -> List[float]:
    shape = draw(st.sampled_from(["grid", "equal", "bursts"]))
    if shape == "grid":
        ticks = sorted(draw(st.lists(st.integers(0, 40), max_size=50)))
    elif shape == "equal":
        ticks = [draw(st.integers(0, 8))] * draw(st.integers(0, 40))
    else:
        ticks, at = [], 0
        for size in draw(st.lists(st.integers(1, 12), max_size=5)):
            at += draw(st.integers(0, 12))
            ticks += [at] * size
    return [tick * UNIT for tick in ticks]


def units(low: int, high: int):
    return st.integers(low, high).map(lambda n: n * UNIT)


limiters = st.one_of(
    st.tuples(st.just("static"), st.integers(1, 4)),
    st.tuples(st.just("aimd"), st.builds(
        AimdConfig, target_delay=units(1, 6), min_limit=st.just(1),
        max_limit=st.integers(1, 5), interval=units(1, 8))))

cases = st.builds(
    Case,
    arrivals=schedules().map(tuple),
    keys=st.lists(st.integers(0, 4), min_size=1, max_size=8).map(tuple),
    start=units(0, 3),
    capacity=st.integers(1, 6),
    policy=st.sampled_from(QUEUE_POLICIES),
    deadline=st.one_of(st.none(), units(1, 8)),
    limiter=limiters,
    cost=st.builds(ServiceCostModel, base_cost=units(1, 4),
                   miss_penalty=units(0, 4), promotion_cost=units(0, 3)),
    fetch_time=units(0, 2),
    probe=st.booleans(),
    tracer=st.one_of(st.none(), st.tuples(
        st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 3),
        st.sampled_from([0.0, 0.5]))),
    metrics=st.booleans(),
)


@given(case=cases)
@settings(max_examples=400, deadline=None)
def test_engine_replays_the_single_heap_loop(case):
    assert replay(run_open_loop, case) == replay(single_heap_loop, case)


#: One slot and a one-entry fifo queue: at t=0 key 1 is dispatched and
#: key 2 waits; key 3 arrives at t=1, the instant key 1 completes.
TIE = Case(
    arrivals=(0.0, 0.0, 1.0), keys=(1, 2, 3), start=0.0, capacity=1,
    policy="fifo", deadline=None, limiter=("static", 1),
    cost=ServiceCostModel(base_cost=1.0, miss_penalty=0.0,
                          promotion_cost=0.0),
    fetch_time=0.0, probe=True, tracer=(1.0, 0, 0.0), metrics=True)


def test_an_arrival_wins_a_tie_with_a_completion():
    """Key 3 goes first, finds the queue still full and is shed; only
    then does key 1's completion let key 2 through."""
    seen = replay(run_open_loop, TIE)
    assert seen == replay(single_heap_loop, TIE)
    assert seen["report"].outcomes == {DROPPED: 0, "shed": 1, "miss": 2}
    assert [key for key, _ in seen["calls"]] == [1, 2]


def test_a_schedule_that_goes_back_is_refused_before_any_get():
    service = TwoSlotService(VirtualClock(), 0.0)
    with pytest.raises(ValueError, match=r"arrivals\[2\] = 0\.25 is "
                                         r"before arrivals\[1\] = 0\.5"):
        run_open_loop(service.get, [0.0, 0.5, 0.25, 1.0], [1, 2],
                      service.clock, promotions_probe=service.probe)
    with pytest.raises(ValueError, match=r"arrivals\[1\]"):
        run_open_loop(service.get, np.array([2.0, 1.0]), [1],
                      service.clock)
    assert service.calls == []
    assert service.probes == 0
    assert service.clock.now() == 0.0
