"""Closed-loop multi-threaded load harness for the cache service.

``run_load`` replays a key sequence through a
:class:`~repro.service.service.CacheService` from ``threads`` worker
threads (closed loop: each thread issues its next request only after
the previous one resolved), and returns a :class:`LoadReport` with
per-outcome counts, latency percentiles, throughput, and the breaker's
state transitions.

Keys are dealt round-robin across threads, so with ``threads=1`` the
replay is exactly the input order -- which is how the deterministic
virtual-clock tests and the outage experiment use it.  A per-request
``tick`` advances a :class:`~repro.exec.clock.VirtualClock` between
requests to model request interarrival time; it must be left at 0 for
real multi-threaded runs on the system clock.

The harness is interrupt-safe: on ``KeyboardInterrupt`` the stop flag
is set, worker threads wind down at their next request boundary, and
the partial :class:`LoadReport` is attached to the re-raised
:class:`LoadInterrupted` so callers (the CLI) can flush what was
measured before exiting with code 130.

:func:`run_closed_loop` is that loop -- argument checks, tick pacing,
the thread pool and the interrupt path -- for any ``get``;
:func:`~repro.cluster.loadgen.run_cluster_load` drives a cluster
through it too.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.clock import Clock, VirtualClock
from repro.obs.metrics import MetricsRegistry, percentile
from repro.obs.timeseries import TimeSeriesRecorder
from repro.service.overload import (
    AdmissionQueue,
    ArrivalSchedule,
    ConcurrencyLimiter,
    OpenLoadReport,
    ServiceCostModel,
    run_open_loop,
)
from repro.service.service import OUTCOMES, CacheService


class LoadInterrupted(KeyboardInterrupt):
    """Ctrl-C during a load run; carries the partial report."""

    def __init__(self, report: "LoadReport") -> None:
        super().__init__("load run interrupted")
        self.report = report


@dataclass
class LoadReport:
    """Everything one load run measured."""

    requests: int
    outcomes: Dict[str, int]
    coalesced: int
    fetch_attempts: int
    fetch_failures: int
    latency_p50: float
    latency_p90: float
    latency_p99: float
    elapsed: float                 # wall seconds (real clock)
    threads: int
    breaker_transitions: List[Tuple[float, str, str]] = field(
        default_factory=list)
    interrupted: bool = False

    @property
    def throughput(self) -> float:
        """Requests per wall second (0.0 for an instant run)."""
        if self.elapsed <= 0:
            return 0.0
        return self.requests / self.elapsed

    @property
    def availability(self) -> float:
        """Fraction of requests that got a value (hit, miss or stale)."""
        if self.requests == 0:
            return 0.0
        served = (self.outcomes["hit"] + self.outcomes["miss"]
                  + self.outcomes["stale"])
        return served / self.requests

    def check_accounting(self) -> None:
        """Assert the invariant sum(outcomes) == requests."""
        accounted = sum(self.outcomes.values())
        if accounted != self.requests:
            raise AssertionError(
                f"outcome accounting broken: {accounted} accounted "
                f"vs {self.requests} requests ({self.outcomes})")

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"requests      : {self.requests} over {self.threads} thread(s)"
            + (" [interrupted]" if self.interrupted else ""),
            f"outcomes      : " + "  ".join(
                f"{name}={self.outcomes[name]}" for name in OUTCOMES),
            f"coalesced     : {self.coalesced}",
            f"backend       : {self.fetch_attempts} fetch(es), "
            f"{self.fetch_failures} failed",
            f"availability  : {self.availability:.2%}",
            f"latency       : p50={self.latency_p50 * 1e3:.3f}ms "
            f"p90={self.latency_p90 * 1e3:.3f}ms "
            f"p99={self.latency_p99 * 1e3:.3f}ms",
            f"elapsed       : {self.elapsed:.3f}s "
            f"({self.throughput:.0f} req/s)",
        ]
        if self.breaker_transitions:
            moves = ", ".join(f"{src}->{dst}@{ts:.2f}s"
                              for ts, src, dst in self.breaker_transitions)
            lines.append(f"breaker       : {moves}")
        return "\n".join(lines)


def _report(service: CacheService, elapsed: float, threads: int,
            interrupted: bool) -> LoadReport:
    snap = service.metrics.snapshot()
    latencies = service.metrics.latencies()
    return LoadReport(
        requests=snap["requests"],
        outcomes={name: snap[name] for name in OUTCOMES},
        coalesced=snap["coalesced"],
        fetch_attempts=snap["fetch_attempts"],
        fetch_failures=snap["fetch_failures"],
        latency_p50=percentile(latencies, 0.50),
        latency_p90=percentile(latencies, 0.90),
        latency_p99=percentile(latencies, 0.99),
        elapsed=elapsed,
        threads=threads,
        breaker_transitions=service.breaker_transitions(),
        interrupted=interrupted,
    )


def run_closed_loop(
    get: Callable[[Any], Any],
    clock: Clock,
    keys: Sequence,
    report: Callable[[float, bool], Any],
    threads: int = 1,
    tick: float = 0.0,
    layer: str = "service",
    pace: Optional[Callable[[float], None]] = None,
    timeseries: Optional[TimeSeriesRecorder] = None,
) -> Any:
    """The closed-loop load body behind :func:`run_load` and
    :func:`~repro.cluster.loadgen.run_cluster_load`.

    Deals *keys* round-robin to ``threads`` workers that each call
    *get* on their next key once the previous call returned.
    ``tick`` > 0 schedules request *i* at ``origin + i * tick`` on
    *clock*, a :class:`VirtualClock` (single-threaded mode only), via
    ``sleep_until``; *pace*, if given, is called with each deadline
    before the sleep.  *timeseries* is offered the clock time after
    every request.  *report* builds the result from the wall seconds
    elapsed and whether the run was interrupted; on Ctrl-C the workers
    wind down at their next request boundary and the partial report
    rides out on :class:`LoadInterrupted`.  *layer* names what *get*
    serves in the error messages.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if tick < 0:
        raise ValueError(f"tick must be >= 0, got {tick}")
    if tick > 0 and threads != 1:
        raise ValueError("tick-based virtual time requires threads=1")
    if tick > 0 and not isinstance(clock, VirtualClock):
        raise ValueError(f"tick requires the {layer} to run on a "
                         f"VirtualClock")

    stop = threading.Event()
    started = time.perf_counter()
    origin = clock.now()

    def worker(slice_keys: Sequence) -> None:
        # Tick pacing uses absolute deadlines (sleep_until) rather than
        # relative advances, so the request schedule stays exact no
        # matter what the service itself does to the shared clock.
        for index, key in enumerate(slice_keys, start=1):
            if stop.is_set():
                return
            if tick:
                deadline = origin + index * tick
                if pace is not None:
                    pace(deadline)
                clock.sleep_until(deadline)
            get(key)
            if timeseries is not None:
                timeseries.maybe_sample(clock.now())

    slices = ([list(keys[t::threads]) for t in range(threads)]
              if threads > 1 else [])
    pool = [threading.Thread(target=worker, args=(s,), daemon=True)
            for s in slices]
    for thread in pool:
        thread.start()
    try:
        if not pool:
            worker(keys)
        for thread in pool:
            # Join with a timeout so the main thread stays interruptible.
            while thread.is_alive():
                thread.join(timeout=0.1)
    except KeyboardInterrupt:
        stop.set()
        for thread in pool:
            thread.join(timeout=5.0)
        raise LoadInterrupted(
            report(time.perf_counter() - started, True)) from None
    return report(time.perf_counter() - started, False)


def run_load(
    service: CacheService,
    keys: Sequence,
    threads: int = 1,
    tick: float = 0.0,
    timeseries: Optional[TimeSeriesRecorder] = None,
) -> LoadReport:
    """Replay *keys* through *service* and measure what happened.

    ``tick`` > 0 advances the service's :class:`VirtualClock` by that
    many virtual seconds before each request (single-threaded
    deterministic mode only -- with real threads a shared virtual
    advance would be racy in *meaning*, not just in memory).

    *timeseries*, if given, is offered the service's clock time after
    every request and samples its registry whenever ``cadence`` clock
    seconds elapsed -- so a run over an injected outage window yields
    windowed outcome curves (hit/stale/error rates over time) rather
    than end-of-run totals.  Pair it with the same registry the
    service mirrors its counters into.
    """
    return run_closed_loop(
        service.get, service.clock, keys,
        lambda elapsed, interrupted: _report(service, elapsed, threads,
                                             interrupted),
        threads=threads, tick=tick, timeseries=timeseries)


def run_open_load(
    service: CacheService,
    keys: Sequence,
    schedule: ArrivalSchedule,
    queue: Optional[AdmissionQueue] = None,
    limiter: Optional[ConcurrencyLimiter] = None,
    cost: Optional[ServiceCostModel] = None,
    timeseries: Optional[TimeSeriesRecorder] = None,
    registry: Optional[MetricsRegistry] = None,
    metric_labels: Optional[dict] = None,
    tracer=None,
) -> OpenLoadReport:
    """Open-loop load against one :class:`CacheService`.

    Unlike :func:`run_load`, demand is an arrival *schedule*: requests
    arrive at their schedule times whether or not earlier ones
    finished, wait in a bounded admission *queue*, and dispatch when
    the *limiter* grants a slot -- so offered load can exceed capacity
    and the overload behaviour (shed, dropped, queue delay, goodput)
    becomes measurable.  Service time comes from the *cost* model,
    with promotion work charged on a serialised lock timeline; the
    schedule plays out on the service's clock (use a
    :class:`~repro.exec.clock.VirtualClock` for deterministic runs).
    The service's own retry budget, if configured, is reported.
    """
    probe = service.policy  # promotion_count aggregates inner caches
    return run_open_loop(
        get=service.get,
        arrivals=schedule.times(),
        keys=keys,
        clock=service.clock,
        queue=queue,
        limiter=limiter,
        cost=cost,
        promotions_probe=lambda: probe.promotion_count,
        retry_budget=service.retry_budget,
        timeseries=timeseries,
        registry=registry,
        metric_labels=metric_labels,
        tracer=tracer,
    )


__all__ = ["LoadInterrupted", "LoadReport", "run_closed_loop", "run_load",
           "run_open_load"]
