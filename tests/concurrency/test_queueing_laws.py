"""Queueing laws that pin the one lock-cost engine, ``run_open_loop``.

Each law holds for any service-time distribution, so each test checks
the engine against arithmetic on its own inputs and outputs, not
against a recorded number:

* Utilisation law: the promotion lock is busy for exactly
  promotions x ``promotion_cost`` seconds, never longer than the run.
* Little's law: over an open-loop run that starts and ends empty, the
  time-average number of requests in the system equals throughput x
  the mean sojourn of the root spans.
* Closed-loop bounds: T threads complete at most
  ``min(T / R0, 1 / D_lock)`` requests per second, where R0 is the
  mean of each request's ``max(parallel time, lock time)`` and D_lock
  the mean lock time per request.  One thread meets T / R0 exactly,
  and an all-hit LRU meets 1 / D_lock.
* Qiu, Yang & Harchol-Balter's effect: when hits hold the lock, a
  larger cache raises the hit ratio and lowers the throughput.
"""

from statistics import fmean

import numpy as np
import pytest

from repro.exec.clock import VirtualClock
from repro.experiments.scalability import run_point
from repro.obs.reqtrace import RequestTracer, TailRules
from repro.policies.registry import make
from repro.service.backend import InMemoryBackend
from repro.service.overload import (
    DROPPED,
    AdmissionQueue,
    PoissonArrivals,
    ServiceCostModel,
    StaticLimiter,
    run_open_loop,
)
from repro.service.service import CacheService, ServiceConfig
from repro.traces.synthetic import zipf_trace

COST = ServiceCostModel()
CAPACITY = 100


@pytest.fixture(scope="module")
def keys():
    return zipf_trace(500, 2000, 1.0, np.random.default_rng(7)).tolist()


class Demands:
    """Wraps ``CacheService.get`` to record each request's two demands."""

    def __init__(self, service: CacheService) -> None:
        self.service = service
        self.parallel = []
        self.lock = []

    def promotions(self) -> int:
        return self.service.policy.promotion_count

    def get(self, key, **kwargs):
        before = self.promotions()
        result = self.service.get(key, **kwargs)
        self.parallel.append(COST.parallel_time(result.outcome))
        self.lock.append(COST.lock_time(self.promotions() - before))
        return result


def serve(policy, keys, arrivals, limiter, warm=(), clock=None,
          tracer=None):
    """One engine run on a fresh service; returns (report, demands, end)."""
    clock = clock or VirtualClock()
    service = CacheService(make(policy, CAPACITY), InMemoryBackend(),
                           ServiceConfig(), clock=clock)
    for key in warm:
        service.get(key)
    demands = Demands(service)
    report = run_open_loop(
        demands.get, arrivals, keys, clock,
        queue=AdmissionQueue(len(arrivals)), limiter=limiter, cost=COST,
        promotions_probe=demands.promotions, tracer=tracer)
    report.check_conservation()
    return report, demands, clock.now()


def closed_loop(policy, keys, threads, warm=()):
    """X3's cell: every request due at time 0, *threads* slots."""
    return serve(policy, keys, [0.0] * len(keys), StaticLimiter(threads),
                 warm=warm)


class TestUtilisationLaw:
    @pytest.mark.parametrize("threads", [1, 4, 32])
    @pytest.mark.parametrize("policy", ["LRU", "QD-LP-FIFO", "FIFO"])
    def test_lock_busy_is_promotions_times_cost(self, policy, threads,
                                                keys):
        report, _, end = closed_loop(policy, keys, threads)
        assert report.lock_busy == pytest.approx(
            report.promotions * COST.promotion_cost, rel=1e-9)
        assert report.lock_busy <= end


class _Departures(StaticLimiter):
    """A static limiter that records the time of every completion."""

    def __init__(self, limit: int) -> None:
        super().__init__(limit)
        self.times = []

    def on_complete(self, queue_delay: float, now: float) -> None:
        self.times.append(now)


class TestLittlesLaw:
    def test_in_system_equals_throughput_times_sojourn(self, keys):
        arrivals = PoissonArrivals(rate=300.0, duration=10.0,
                                   seed=3).times()
        departures = _Departures(8)
        clock = VirtualClock()
        tracer = RequestTracer(clock=clock, max_traces=len(arrivals),
                               tail=TailRules(keep_fraction=1.0))
        report, _, end = serve("LRU", keys, arrivals, departures,
                               clock=clock, tracer=tracer)
        # Below saturation and unbounded: nothing is shed or dropped.
        assert report.outcomes[DROPPED] == report.outcomes["shed"] == 0
        assert len(departures.times) == len(arrivals)

        area, in_system, last = 0.0, 0, 0.0
        steps = sorted([(at, 1) for at in arrivals]
                       + [(at, -1) for at in departures.times])
        for at, step in steps:
            area += in_system * (at - last)
            in_system += step
            last = at
        assert in_system == 0 and last == end

        roots = tracer.spans("request")
        assert len(roots) == len(arrivals)
        mean_sojourn = fmean(root.stop - root.start for root in roots)
        throughput = len(arrivals) / end
        assert area / end == pytest.approx(throughput * mean_sojourn,
                                           rel=1e-9)


class TestClosedLoopBounds:
    @pytest.mark.parametrize("policy", ["LRU", "QD-LP-FIFO"])
    def test_throughput_within_bounds(self, policy, keys):
        runs = {t: closed_loop(policy, keys, t) for t in range(1, 33)}
        _, demands, _ = runs[1]
        r0 = fmean(max(p, lock)
                   for p, lock in zip(demands.parallel, demands.lock))
        d_lock = fmean(demands.lock)
        for threads, (_, seen, end) in runs.items():
            # The closed loop serves the keys in order at any T.
            assert (seen.parallel, seen.lock) == (demands.parallel,
                                                  demands.lock)
            bound = min(threads / r0, 1 / d_lock)
            assert len(keys) / end <= bound * (1 + 1e-12), threads
        assert len(keys) / runs[1][2] == pytest.approx(1 / r0, rel=1e-12)

    def test_all_hit_lru_reaches_lock_bound(self):
        hot = list(range(CAPACITY))
        report, demands, end = closed_loop("LRU", hot * 20, 32, warm=hot)
        assert report.hit_ratio == 1.0
        assert len(hot) * 20 / end == pytest.approx(
            1 / fmean(demands.lock), rel=0.01)


class TestHitRatioCanHurtThroughput:
    def test_bigger_cache_slows_lru_and_speeds_fifo(self):
        keys = zipf_trace(2000, 6000, 1.1,
                          np.random.default_rng(5)).tolist()
        for policy, sign in (("LRU", -1), ("FIFO", 1)):
            points = [run_point(policy, capacity, keys, threads=32)
                      for capacity in (20, 80, 320, 1280)]
            hits = [p.hit_ratio for p in points]
            speeds = [sign * p.throughput for p in points]
            assert all(a < b for a, b in zip(hits, hits[1:])), policy
            assert all(a < b for a, b in zip(speeds, speeds[1:])), policy
