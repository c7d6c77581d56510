"""A thread-safe, fault-tolerant read-through cache service.

:class:`CacheService` puts any :class:`~repro.core.base.EvictionPolicy`
in front of a :class:`~repro.service.backend.Backend` and serves
concurrent ``get(key)`` traffic with production-grade failure handling:

* **Request coalescing (single-flight)** -- concurrent misses on one
  key share a single backend fetch; one caller becomes the *leader*,
  the rest block on its flight and inherit its outcome.  A flash crowd
  on a cold key issues exactly one origin fetch.
* **Retry with exponential backoff and deadlines** -- backend fetches
  reuse :class:`~repro.exec.retry.RetryPolicy`; per-fetch elapsed time
  over ``deadline`` counts as a timeout.  All waiting goes through the
  shared :class:`~repro.exec.clock.Clock`, so tests never sleep.
* **Circuit breaker** -- consecutive backend failures trip a
  :class:`~repro.service.breaker.CircuitBreaker`; while open, misses
  degrade instantly instead of queueing on a dead origin.
* **Graceful degradation** -- on fetch failure the service serves a
  stale copy if one exists within ``ttl + stale_ttl`` (bounded
  staleness), negative-caches the error for ``negative_ttl`` seconds
  so repeated misses don't re-hammer the origin, and sheds load when
  more than ``max_inflight`` fetches are already in flight.

Every request resolves to exactly one outcome -- ``hit``, ``miss``
(fetched), ``stale``, ``shed`` or ``error`` -- and the accounting
invariant ``hits + misses + stale + shed + errors == requests`` holds
under arbitrary concurrency (the stress tests hammer it).

The eviction policy's own structures are guarded by one service lock,
matching the paper's §2 model of a production cache: every promotion a
policy performs on the hit path happens inside the critical section,
which is exactly why lazy-promotion policies serve concurrent traffic
better than LRU.  The critical section holds that work and nothing
else -- the store lookup, ``policy.request``, store writes, the negative
cache and the flight table; metrics, span ends and result objects are
produced after the lock is released.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, Hashable, List,
                    Optional, Sequence)

from repro.core.base import CacheListener, EvictionPolicy
from repro.exec.clock import Clock, SystemClock
from repro.exec.retry import NO_RETRY, RetryPolicy
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    Reservoir,
    label_pairs,
)
from repro.obs.reqtrace import NOT_SAMPLED
from repro.service.backend import Backend
from repro.service.breaker import (
    STATE_VALUES,
    BreakerConfig,
    CircuitBreaker,
)
from repro.service.faults import BackendTimeout
from repro.service.overload import (
    AIMDLimiter,
    AimdConfig,
    RetryBudget,
    RetryBudgetConfig,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.reqtrace import ActiveSpan, RequestTracer, TraceContext

Key = Hashable

#: Per-outcome latency sample size kept by :class:`OutcomeLedger`.
#: Percentile error at this size is well under the 5% CI diff gates.
LATENCY_RESERVOIR_SIZE = 4096

HIT = "hit"        # fresh value served from the cache
MISS = "miss"      # value fetched from the backend (or coalesced onto one)
STALE = "stale"    # expired value served because the backend is failing
SHED = "shed"      # rejected: too many fetches already in flight
ERROR = "error"    # no value: backend failed and nothing to degrade to

OUTCOMES = (HIT, MISS, STALE, SHED, ERROR)

# Where CacheService._route_miss sends a request with no fresh value.
_LEAD = "lead"            # start a backend fetch
_FOLLOW = "follow"        # ride the fetch already in flight
_NEGATIVE = "negative"    # refused from the negative cache
_REFUSE = "refuse"        # shed or breaker-open: stale copy or refusal


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for :class:`CacheService` (validated eagerly).

    * ``ttl`` -- seconds a fetched value counts as fresh; ``None``
      means values never expire.
    * ``stale_ttl`` -- extra seconds past ``ttl`` during which an
      expired value may still be served *if the backend is failing*
      (bounded staleness; 0 disables serve-stale).
    * ``negative_ttl`` -- seconds a backend failure is remembered;
      requests within the window fail fast without touching the
      backend (0 disables negative caching).
    * ``max_inflight`` -- cap on concurrent backend fetches; misses
      beyond it are shed.  ``None`` means unlimited.
    * ``deadline`` -- per-fetch time budget; a slower fetch counts as
      a timeout failure even if it eventually returned.
    * ``retry`` -- backoff schedule for failed fetches
      (:data:`~repro.exec.retry.NO_RETRY` by default).
    * ``breaker`` -- circuit-breaker configuration, or ``None`` to
      disable the breaker entirely.
    * ``limiter`` -- adaptive concurrency limiting
      (:class:`~repro.service.overload.AimdConfig`): the in-flight
      fetch cap moves with observed fetch latency (AIMD) instead of
      sitting at a static ``max_inflight``.  Mutually exclusive with
      ``max_inflight`` -- one knob must own the shed decision.
    * ``retry_budget`` -- token bucket over the retry path
      (:class:`~repro.service.overload.RetryBudgetConfig`): retries
      beyond the budget are cut off instead of amplifying an outage
      into a retry storm.  ``None`` leaves retries unbudgeted.
    """

    ttl: Optional[float] = None
    stale_ttl: float = 0.0
    negative_ttl: float = 0.0
    max_inflight: Optional[int] = None
    deadline: Optional[float] = None
    retry: RetryPolicy = NO_RETRY
    breaker: Optional[BreakerConfig] = field(default_factory=BreakerConfig)
    limiter: Optional[AimdConfig] = None
    retry_budget: Optional[RetryBudgetConfig] = None

    def __post_init__(self) -> None:
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError(
                f"ttl must be > 0 seconds or None (never expire), "
                f"got {self.ttl}")
        if self.stale_ttl < 0:
            raise ValueError(
                f"stale_ttl must be >= 0 seconds, got {self.stale_ttl}")
        if self.negative_ttl < 0:
            raise ValueError(
                f"negative_ttl must be >= 0 seconds, "
                f"got {self.negative_ttl}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1 or None (unlimited), "
                f"got {self.max_inflight}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(
                f"deadline must be > 0 seconds or None (unbounded), "
                f"got {self.deadline}")
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy, got {type(self.retry).__name__}")
        if self.breaker is not None and not isinstance(self.breaker,
                                                       BreakerConfig):
            raise TypeError(
                f"breaker must be a BreakerConfig or None, "
                f"got {type(self.breaker).__name__}")
        if self.limiter is not None and not isinstance(self.limiter,
                                                       AimdConfig):
            raise TypeError(
                f"limiter must be an AimdConfig or None, "
                f"got {type(self.limiter).__name__}")
        if self.limiter is not None and self.max_inflight is not None:
            raise ValueError(
                "limiter and max_inflight are mutually exclusive: the "
                "adaptive limiter replaces the static in-flight cap")
        if self.retry_budget is not None and not isinstance(
                self.retry_budget, RetryBudgetConfig):
            raise TypeError(
                f"retry_budget must be a RetryBudgetConfig or None, "
                f"got {type(self.retry_budget).__name__}")


@dataclass(slots=True)
class GetResult:
    """What one ``get`` resolved to.

    ``fetched_at`` is when the served copy was fetched, on the service
    clock (``None`` when no value was served): a copy passed on to
    another cache keeps this age (see :meth:`CacheService.put`).
    """

    key: Key
    value: Any
    outcome: str           # one of OUTCOMES
    coalesced: bool        # served by another request's fetch
    latency: float         # seconds on the service clock
    error: Optional[str] = None
    fetched_at: Optional[float] = None

    @property
    def ok(self) -> bool:
        """Whether a value (fresh or stale) was served."""
        return self.outcome in (HIT, MISS, STALE)


class OutcomeLedger:
    """Thread-safe per-outcome accounting for one serving layer.

    The one request ledger of the serving stack: :func:`ServiceMetrics`
    and :func:`~repro.cluster.cluster.ClusterMetrics` configure it for
    a service and a cluster.  Both build this one class, so the hot
    :meth:`record` always sees one type (CPython's attribute caches
    stay monomorphic across the two layers).  Each finished request
    adds one count and one latency sample to its outcome; the
    latencies are per-outcome fixed-size
    :class:`~repro.obs.metrics.Reservoir` samples (seeded by the
    outcome's index, so single-threaded runs are deterministic), which
    holds memory constant on million-request open-loop runs while the
    load generators' percentile reports still read raw samples, not
    buckets.  *side* names the layer's extra counters (with their help
    text), reported by :meth:`snapshot`; *flag* is the one
    :meth:`record`'s third argument bumps.  *arrivals*, when given,
    reads an independent count of requests that entered the layer,
    which :meth:`check_conservation` compares with the outcomes.

    The counts live in one store: a :class:`~repro.obs.metrics.Counter`
    per outcome (``<layer>_requests_total{outcome=}``) and per side
    counter (``<layer>_<name>_total``), which :meth:`snapshot` and the
    other views read.  With a :class:`~repro.obs.metrics.MetricsRegistry`
    supplied, they are registered there, with one latency
    :class:`~repro.obs.metrics.Histogram` per outcome
    (``<layer>_request_latency_seconds{outcome=}``), so the run can be
    exported via :mod:`repro.obs.export`; without one the ledger builds
    no histogram.  Extra *labels* (e.g. ``{"shard": "s2"}`` from the
    cluster router) are attached to every series, which is how
    per-shard serving behaviour stays separable in one shared registry.

    Every series and reservoir of a ledger is guarded by the ledger's
    one lock, so :meth:`record` and :meth:`bump` each take one lock.
    Two ledgers of one layer and labels on one registry share their
    series, and with them that lock (see
    :meth:`~repro.obs.metrics.MetricsRegistry.register`).
    """

    def __init__(self, layer: str, outcomes: Sequence[str],
                 side: Dict[str, str], flag: str,
                 registry: Optional[MetricsRegistry] = None,
                 labels: Optional[Dict[str, str]] = None,
                 arrivals: Optional[Callable[[], int]] = None) -> None:
        self.layer = layer
        self._flag = flag
        self._arrivals = arrivals
        self.registry = registry
        self.labels = dict(labels or {})
        noun = layer.capitalize()
        lock = threading.Lock()
        by_outcome = [label_pairs({"outcome": outcome, **self.labels})
                      for outcome in outcomes]
        counts = [Counter(f"{layer}_requests_total", pairs,
                          f"{noun} requests by outcome", lock=lock)
                  for pairs in by_outcome]
        sides = [Counter(f"{layer}_{name}_total", label_pairs(self.labels),
                         help, lock=lock) for name, help in side.items()]
        latency: List[Optional[Histogram]] = [None] * len(outcomes)
        if registry is not None:
            latency = [Histogram(f"{layer}_request_latency_seconds", pairs,
                                 f"{noun} request latency by outcome",
                                 DEFAULT_LATENCY_BUCKETS, lock=lock)
                       for pairs in by_outcome]
            # One group: a twin ledger's series win, with their lock.
            held = registry.register(*counts, *sides, *latency)
            counts = held[:len(counts)]
            sides = held[len(counts):len(counts) + len(sides)]
            latency = held[len(counts) + len(sides):]
        self._lock = counts[0].lock
        self._counts: Dict[str, Counter] = dict(zip(outcomes, counts))
        self._side: Dict[str, Counter] = dict(zip(side, sides))
        self._reservoirs = {
            outcome: Reservoir(LATENCY_RESERVOIR_SIZE, seed=index)
            for index, outcome in enumerate(outcomes)}
        # What record() calls for an outcome, bound once: count it,
        # sample its latency, and observe it (None without a registry).
        self._record_calls = {
            outcome: (counter.inc_held, self._reservoirs[outcome].add,
                      histogram.observe_held
                      if histogram is not None else None)
            for outcome, counter, histogram
            in zip(outcomes, counts, latency)}
        self._count_flag = self._side[flag].inc_held

    def record(self, outcome: str, latency: float, flagged: bool = False,
               exemplar: Optional[str] = None,
               side: Optional[str] = None) -> bool:
        """Account one finished request.

        ``flagged`` also bumps the *flag* side counter, and ``side``
        names one more side counter to bump (the service counts the
        fetch that served a miss this way), in the same critical
        section.  ``exemplar`` optionally offers a trace id to the
        latency histogram's bucket (see :meth:`Histogram.observe`);
        returns True when it was taken, so the caller can pin that
        trace.
        """
        count, sample, observe = self._record_calls[outcome]
        # Every section a request enters in this module spells out its
        # acquire and release, which costs less per call than `with`:
        # see "A request pays for its locks" in docs/performance.md.
        lock = self._lock
        lock.acquire()
        try:
            count(1)
            sample(latency)
            if flagged:
                self._count_flag(1)
            if side is not None:
                self._side[side].inc_held(1)
            if observe is not None:
                return observe(latency, exemplar)
        finally:
            lock.release()
        return False

    def bump(self, name: str, amount: int = 1) -> None:
        """Add *amount* (must be >= 0) to side counter *name*."""
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        counter = self._side[name]
        lock = self._lock
        lock.acquire()
        try:
            counter.inc_held(amount)
        finally:
            lock.release()

    # -- views ---------------------------------------------------------
    @staticmethod
    def _values(series: Dict[str, Counter]) -> Dict[str, int]:
        """Each counter's value; the caller holds the ledger's lock."""
        return {name: counter.value_held() for name, counter in series.items()}

    @property
    def counts(self) -> Dict[str, int]:
        """A consistent copy of the per-outcome counts."""
        with self._lock:
            return self._values(self._counts)

    @property
    def side(self) -> Dict[str, int]:
        """A consistent copy of the side counters."""
        with self._lock:
            return self._values(self._side)

    @property
    def requests(self) -> int:
        return sum(self.counts.values())

    def latencies(self, outcome: Optional[str] = None) -> List[float]:
        """Sampled latencies, for one outcome or all of them."""
        with self._lock:
            if outcome is not None:
                return self._reservoirs[outcome].values()
            merged: List[float] = []
            for reservoir in self._reservoirs.values():
                merged.extend(reservoir.values())
            return merged

    def snapshot(self) -> Dict[str, int]:
        """A consistent copy of every counter.

        ``arrivals``, when counted, is read after the outcome counts, so
        it is never below ``requests``; the two are equal once no
        request is in flight.
        """
        with self._lock:
            snap = self._values(self._counts)
            snap["requests"] = sum(snap.values())
            snap.update(self._values(self._side))
        if self._arrivals is not None:
            snap["arrivals"] = self._arrivals()
        return snap

    def check_conservation(self) -> None:
        """Assert that every arrived request ended in exactly one outcome.

        Needs *arrivals*.  Call it with no request in flight: an
        unfinished request has arrived but has no outcome yet, and so
        does one that raised.
        """
        snap = self.snapshot()
        accounted = sum(snap[outcome] for outcome in self._counts)
        if accounted != snap["arrivals"]:
            raise AssertionError(
                f"{self.layer} outcome accounting broken: "
                f"{snap['arrivals']} requests arrived, {accounted} "
                f"accounted ({snap})")

    # -- the layers' named side events ---------------------------------
    def record_fetch(self, ok: bool) -> None:
        """Account one backend fetch attempt (service), a failed one
        together with its failure."""
        attempts = self._side["fetch_attempts"]
        with self._lock:
            attempts.inc_held(1)
            if not ok:
                self._side["fetch_failures"].inc_held(1)

    def record_negative_hit(self) -> None:
        """Account one request answered from the negative cache (service)."""
        self.bump("negative_hits")

    def record_replication(self, copies: int) -> None:
        """Account hot-key values pushed to replica shards (cluster)."""
        self.bump("replications", copies)

    def record_replica_probe(self) -> None:
        """Account one replica read for an unavailable primary (cluster)."""
        self.bump("replica_probes")

    @property
    def fetch_attempts(self) -> int:
        return self._side["fetch_attempts"].value

    @property
    def replications(self) -> int:
        return self._side["replications"].value


def ServiceMetrics(registry: Optional[MetricsRegistry] = None,
                   labels: Optional[Dict[str, str]] = None) -> OutcomeLedger:
    """The service's ledger: :data:`OUTCOMES` plus coalescing, backend
    fetch and negative-cache counters, mirrored as ``service_*``."""
    return OutcomeLedger("service", OUTCOMES, {
        "coalesced": "Requests served by another request's fetch",
        "fetch_attempts": "Backend fetch attempts",
        "fetch_failures": "Failed backend fetches",
        "negative_hits": "Requests answered from the negative cache",
    }, flag="coalesced", registry=registry, labels=labels)


@dataclass
class _Entry:
    """A cached value plus the freshness metadata TTLs need."""

    value: Any
    fetched_at: float


class _Flight:
    """One in-progress backend fetch that followers can latch onto."""

    __slots__ = ("event", "outcome", "value", "error", "fetched_at",
                 "waiters", "leader_trace_id", "leader_span_id")

    def __init__(self) -> None:
        # Built by the first follower: a fetch nobody joins needs none.
        self.event: Optional[threading.Event] = None
        self.outcome: str = ERROR
        self.value: Any = None
        self.error: Optional[str] = None
        self.fetched_at: Optional[float] = None
        self.waiters = 0
        # When the leader's request is traced, followers link their
        # spans to the leader's so a coalesced trace shows *whose*
        # fetch actually served it.
        self.leader_trace_id: Optional[str] = None
        self.leader_span_id: Optional[int] = None


class _StoreReaper(CacheListener):
    """Drop the value store's entry when the policy evicts a key.

    Runs inside the service lock (all policy calls are made under it),
    so the plain dict mutation is safe.
    """

    def __init__(self, store: Dict[Key, _Entry]) -> None:
        self._store = store

    def on_evict(self, key: Key, weight: int = 1) -> None:
        self._store.pop(key, None)


class CacheService:
    """Thread-safe read-through cache over a policy and a backend.

    The single public operation is :meth:`get`; everything else --
    coalescing, retries, breaker, degradation -- happens behind it.
    ``clock`` defaults to the real :class:`~repro.exec.clock.SystemClock`;
    tests inject a :class:`~repro.exec.clock.VirtualClock` and drive
    TTLs, backoffs, outages and breaker cooldowns deterministically.
    """

    #: real-time cap on waiting for another request's fetch; a safety
    #: net only -- leaders always settle their flight, even on error.
    FOLLOWER_WAIT = 30.0

    def __init__(
        self,
        policy: EvictionPolicy,
        backend: Backend,
        config: Optional[ServiceConfig] = None,
        clock: Optional[Clock] = None,
        registry: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Dict[str, str]] = None,
        tracer: Optional["RequestTracer"] = None,
    ) -> None:
        if not isinstance(policy, EvictionPolicy):
            raise TypeError(
                f"policy must be an EvictionPolicy, "
                f"got {type(policy).__name__}")
        if not hasattr(backend, "fetch"):
            raise TypeError(
                f"backend must provide fetch(key), "
                f"got {type(backend).__name__}")
        self.policy = policy
        self.backend = backend
        self.config = config or ServiceConfig()
        self.clock = clock or SystemClock()
        # Request tracing is opt-in; must share this service's clock so
        # span timestamps and request latencies agree.
        self.tracer = tracer
        self.metrics = ServiceMetrics(registry, labels=metric_labels)
        self.limiter: Optional[AIMDLimiter] = (
            AIMDLimiter(self.config.limiter)
            if self.config.limiter is not None else None)
        self.retry_budget: Optional[RetryBudget] = (
            RetryBudget(self.config.retry_budget)
            if self.config.retry_budget is not None else None)
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(self.config.breaker, self.clock)
            if self.config.breaker is not None else None)
        if registry is not None and self.limiter is not None:
            limit_gauge = registry.gauge(
                "service_inflight_limit",
                "Current adaptive in-flight fetch limit",
                **(metric_labels or {}))
            limit_gauge.set(self.limiter.limit)
            self._limit_gauge = limit_gauge
        else:
            self._limit_gauge = None
        if registry is not None and self.breaker is not None:
            gauge = registry.gauge("service_breaker_state",
                                   "0=closed, 1=half-open, 2=open",
                                   **(metric_labels or {}))
            gauge.set(STATE_VALUES[self.breaker.state])
            self.breaker.on_transition = (
                lambda _old, new, _now: gauge.set(STATE_VALUES[new]))
        self._lock = threading.Lock()
        self._store: Dict[Key, _Entry] = {}
        self._negative: Dict[Key, tuple] = {}   # key -> (error, expires_at)
        self._flights: Dict[Key, _Flight] = {}
        policy.add_listener(_StoreReaper(self._store))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def get(self, key: Key,
            ctx: Optional["TraceContext"] = None) -> GetResult:
        """Serve one request for *key* (thread-safe).

        ``ctx`` optionally joins an existing request trace (propagated
        by the cluster router or the open-loop engine); without a
        tracer it is ignored and the request path is unchanged.
        """
        t0 = self.clock.now()
        span = None
        # A request the caller's sampler already passed over stays dark
        # without building the span's arguments.
        if self.tracer is not None and ctx is not NOT_SAMPLED:
            span = self.tracer.start("service.get", ctx=ctx, start=t0,
                                     key=repr(key), **self.metrics.labels)
        lock = self._lock
        lock.acquire()
        try:
            # A fresh cached value.  Without a TTL every stored copy the
            # policy holds is fresh; with one, _freshness ages it.
            entry = self._store.get(key)
            if (entry is not None and key in self.policy
                    and (self.config.ttl is None
                         or self._freshness(key, entry, t0) == HIT)):
                self.policy.request(key)  # hit: policy may promote
            else:
                entry = None
                route, detail = self._route_miss(key, t0, span)
        finally:
            lock.release()
        # The lock is released: recording the outcome (metrics, span
        # end, result object) never lengthens the critical section.
        if entry is not None:
            # The hit, settled in this frame as _finish would settle it.
            latency = self.clock.now() - t0
            took = self.metrics.record(
                HIT, latency, False,
                span.trace_id if span is not None else None)
            if span is not None:
                self._end_span(span, took, HIT)
            return GetResult(key, entry.value, HIT, False, latency, None,
                             entry.fetched_at)
        if route == _LEAD:
            return self._lead(key, detail, t0, span=span)
        if route == _FOLLOW:
            return self._follow(key, detail, t0, span=span)
        if route == _NEGATIVE:
            self.metrics.record_negative_hit()
        value, outcome, error, fetched_at = detail
        return self._finish(key, value, outcome, False, t0, error=error,
                            span=span, fetched_at=fetched_at)

    #: alias so the service can stand in where a callable is expected
    __call__ = get

    def _route_miss(self, key: Key, t0: float,
                    span: Optional["ActiveSpan"]) -> tuple:
        """Where a request with no fresh value goes; caller holds the lock.

        Returns ``(_LEAD, flight)`` for a new backend fetch,
        ``(_FOLLOW, flight)`` to ride the fetch already in flight, or a
        refusal ``(_NEGATIVE | _REFUSE, (value, outcome, error,
        fetched_at))``.
        Records no metrics: the caller does once the lock is released.
        """
        # Recent backend failure: fail fast without a fetch.
        negative = self._negative.get(key)
        if negative is not None:
            error, expires_at = negative
            if t0 < expires_at:
                if span is not None:
                    span.note(negative_cache=True)
                return _NEGATIVE, (None, ERROR, f"negative-cached: {error}",
                                   None)
            del self._negative[key]
        # Someone is already fetching this key: join their flight.
        flight = self._flights.get(key)
        if flight is not None:
            flight.waiters += 1
            if flight.event is None:
                flight.event = threading.Event()
            return _FOLLOW, flight
        # Load shedding: refuse to queue more backend work.  The cap is
        # either the static max_inflight knob or the adaptive limiter's
        # current limit.
        inflight_cap = self.config.max_inflight
        if inflight_cap is None and self.limiter is not None:
            inflight_cap = self.limiter.limit
        if inflight_cap is not None and len(self._flights) >= inflight_cap:
            if span is not None:
                span.note(shed=True, inflight=len(self._flights),
                          inflight_cap=inflight_cap)
            stale = self._stale_entry(key, t0)
            if stale is not None:
                if span is not None:
                    span.note(served_stale=True)
                return _REFUSE, (stale.value, STALE,
                                 "load shed; served stale", stale.fetched_at)
            return _REFUSE, (None, SHED,
                             f"load shed: {len(self._flights)} fetches in "
                             f"flight (max {inflight_cap})", None)
        # Open breaker: degrade instantly, no flight.  The admission
        # decision stays under the lock: a half-open probe slot must be
        # taken together with the flight that will report its fate.
        if self.breaker is not None and not self.breaker.allow():
            if span is not None:
                span.note(breaker="open")
                span.mark("breaker-open")
            stale = self._stale_entry(key, t0)
            if stale is not None:
                if span is not None:
                    span.note(served_stale=True)
                return _REFUSE, (stale.value, STALE,
                                 "circuit open; served stale",
                                 stale.fetched_at)
            return _REFUSE, (None, ERROR, "circuit breaker open", None)
        flight = _Flight()
        if span is not None:
            flight.leader_trace_id = span.trace_id
            flight.leader_span_id = span.span_id
        self._flights[key] = flight
        return _LEAD, flight

    def contains_fresh(self, key: Key) -> bool:
        """Whether a fresh (non-expired) value for *key* is cached."""
        now = self.clock.now()
        with self._lock:
            return self._freshness(key, self._store.get(key), now) == HIT

    # ------------------------------------------------------------------
    # Replica / cluster hooks
    # ------------------------------------------------------------------
    def put(self, key: Key, value: Any,
            fetched_at: Optional[float] = None) -> None:
        """Seed *key* -> *value* as if it had been fetched at *fetched_at*.

        The replica-write hook: the cluster router pushes a hot key's
        value into replica shards through this, and rebalancing
        migrates surviving entries with it.  Both pass the copy's own
        ``fetched_at`` (from :class:`GetResult`), so a copy keeps its
        age and expires where its original does; ``None`` stamps it
        fetched now.  The key is admitted into the eviction policy
        (evictions fire normally) and any negative-cache entry for it
        is cleared.
        """
        lock = self._lock
        lock.acquire()
        try:
            self.policy.request(key)
            self._store[key] = _Entry(
                value, self.clock.now() if fetched_at is None else fetched_at)
            self._negative.pop(key, None)
        finally:
            lock.release()

    def peek(self, key: Key, allow_stale: bool = True) -> Optional[GetResult]:
        """Read *key* locally -- never touches the backend.

        The replica-read hook: when a primary shard's breaker is open
        (or the shard is down), the cluster asks the key's replicas for
        whatever copy they hold.  Returns a :class:`GetResult` with
        outcome ``hit`` (fresh) or ``stale`` (expired but within the
        serve-stale budget) and the copy's ``fetched_at``, or ``None``
        when nothing servable is cached.  Does not promote in the
        eviction policy and records no metrics -- accounting belongs to
        the caller's request, not to this shard.
        """
        now = self.clock.now()
        with self._lock:
            entry = self._store.get(key)
            state = self._freshness(key, entry, now)
        if state is None or (state == STALE and not allow_stale):
            return None
        return GetResult(key, entry.value, state, False, 0.0, None,
                         entry.fetched_at)

    def holds_copy(self, key: Key) -> bool:
        """Whether :meth:`peek` would find a servable copy of *key*.

        The yes/no form of ``peek(key) is not None`` -- the cluster asks
        it of every replica on a hot-key hit -- without building a
        result for the caller to throw away, and without the lock.  Each
        read is atomic: the store's ``get``, then the policy's
        ``__contains__``, which for every registry policy is one dict,
        set or ``OrderedDict`` membership test per segment and never
        iterates.  A locked answer was stale the moment
        the lock was released anyway.  Without a TTL every stored copy
        the policy holds is servable; with one, :meth:`_freshness` ages
        it, reading the clock.
        """
        entry = self._store.get(key)
        if self.config.ttl is None:
            return entry is not None and key in self.policy
        return self._freshness(key, entry) is not None

    def invalidate(self, key: Key) -> bool:
        """Drop any cached value for *key*; returns whether one existed.

        Used by ring rebalancing when a key's ownership moves away from
        this shard.  The policy's metadata entry is left to age out --
        with no stored value the next request is a miss either way.
        """
        with self._lock:
            self._negative.pop(key, None)
            return self._store.pop(key, None) is not None

    def cached_keys(self) -> List[Key]:
        """A consistent snapshot of the keys holding a stored value."""
        with self._lock:
            return [key for key in self._store if key in self.policy]

    @property
    def breaker_open(self) -> bool:
        """Whether the circuit breaker currently rejects fetches."""
        return self.breaker is not None and self.breaker.is_open()

    def breaker_transitions(self) -> List[tuple]:
        """Breaker state transitions so far (empty without a breaker)."""
        if self.breaker is None:
            return []
        return list(self.breaker.transitions)

    # ------------------------------------------------------------------
    # Leader / follower paths
    # ------------------------------------------------------------------
    def _follow(self, key: Key, flight: _Flight, t0: float,
                span: Optional["ActiveSpan"] = None) -> GetResult:
        """Wait for the in-flight fetch and inherit its outcome."""
        if span is not None:
            # Cross-trace link: this request rode another request's
            # fetch; record whose so the trace viewer can join them.
            span.note(coalesced=True)
            if flight.leader_trace_id is not None:
                span.note(leader_trace=flight.leader_trace_id,
                          leader_span=flight.leader_span_id)
        if not flight.event.wait(self.FOLLOWER_WAIT):  # pragma: no cover
            return self._finish(key, None, ERROR, True, t0,
                                error="timed out waiting for the "
                                      "coalesced fetch", span=span)
        return self._finish(key, flight.value, flight.outcome, True, t0,
                            error=flight.error, span=span,
                            fetched_at=flight.fetched_at)

    def _lead(self, key: Key, flight: _Flight, t0: float,
              span: Optional["ActiveSpan"] = None) -> GetResult:
        """Run the backend fetch (with retries) and settle the flight."""
        retry = self.config.retry
        attempt = 1
        error: Optional[str] = None
        breaker_seen = (len(self.breaker.transitions)
                        if self.breaker is not None else 0)
        # Attempt 1 was authorised by the allow() that created the
        # flight (or the breaker is disabled).  It also earns the
        # retry budget its deposit: first tries fund future retries.
        if self.retry_budget is not None:
            self.retry_budget.record_request()
        allowed = True
        released = False
        try:
            while True:
                if not allowed:
                    error = error or "circuit breaker open"
                    break
                fetch_span = (span.child("service.fetch", attempt=attempt)
                              if span is not None else None)
                fetched, error = self._attempt_fetch(key)
                if fetch_span is not None:
                    fetch_span.end(**({"error": error} if error else {}))
                if error is None:
                    self._settle(key, flight, MISS, fetched, None)
                    self._release(key, flight, admit=True)
                    released = True
                    if span is not None:
                        self._annotate(span, attempt, breaker_seen)
                    # The attempt that served is counted with the miss.
                    return self._finish(key, fetched, MISS, False, t0,
                                        span=span, side="fetch_attempts",
                                        fetched_at=flight.fetched_at)
                if attempt >= retry.max_attempts:
                    break
                # Retries spend whole tokens; an empty bucket means the
                # backend is already saturated with first tries, so the
                # retry is cut off rather than amplifying the outage.
                if (self.retry_budget is not None
                        and not self.retry_budget.try_spend()):
                    error = f"{error} [retry budget exhausted]"
                    if span is not None:
                        span.note(retry_budget_exhausted=True)
                    break
                self.clock.sleep(retry.backoff(attempt))
                attempt += 1
                allowed = (self.breaker.allow()
                           if self.breaker is not None else True)
            # All attempts failed (or the breaker cut the retries off):
            # degrade -- negative-cache the error, serve stale if allowed.
            with self._lock:
                now = self.clock.now()
                if self.config.negative_ttl > 0:
                    self._negative[key] = (
                        error, now + self.config.negative_ttl)
                    if span is not None:
                        span.note(negative_cached=True)
                stale = self._stale_entry(key, now)
            if span is not None:
                self._annotate(span, attempt, breaker_seen)
            if stale is not None:
                if span is not None:
                    span.note(served_stale=True)
                self._settle(key, flight, STALE, stale.value, error,
                             stale.fetched_at)
                return self._finish(key, stale.value, STALE, False, t0,
                                    error=error, span=span,
                                    fetched_at=stale.fetched_at)
            self._settle(key, flight, ERROR, None, error)
            return self._finish(key, None, ERROR, False, t0, error=error,
                                span=span)
        finally:
            # Whatever happened -- including an unexpected exception --
            # the flight must be released or followers deadlock.
            if not released:
                self._release(key, flight)
            if self.limiter is not None:
                now = self.clock.now()
                self.limiter.on_complete(now - t0, now)
                if self._limit_gauge is not None:
                    self._limit_gauge.set(self.limiter.limit)

    def _annotate(self, span: "ActiveSpan", attempt: int,
                  breaker_seen: int) -> None:
        """Fold what the fetch loop did into the request span."""
        if attempt > 1:
            span.note(retries=attempt - 1)
        if self.breaker is not None:
            fresh = self.breaker.transitions[breaker_seen:]
            if fresh:
                span.mark("breaker-open")
                span.note(breaker_transitions=[
                    f"{old}->{new}" for _ts, old, new in fresh])

    def _attempt_fetch(self, key: Key) -> tuple:
        """One backend fetch attempt; returns ``(value, error-or-None)``.

        A failed attempt is counted here.  The caller admits a fetched
        value and counts its attempt in the request's record.  The clock
        is read only when a deadline is set.
        """
        deadline = self.config.deadline
        start = self.clock.now() if deadline is not None else 0.0
        try:
            value = self.backend.fetch(key)
            if deadline is not None:
                elapsed = self.clock.now() - start
                if elapsed > deadline:
                    raise BackendTimeout(
                        f"fetch of {key!r} took {elapsed:.3f}s with a "
                        f"{deadline}s deadline")
        except Exception as exc:
            self.metrics.record_fetch(ok=False)
            if self.breaker is not None:
                self.breaker.record_failure()
            return None, f"{type(exc).__name__}: {exc}"
        if self.breaker is not None:
            self.breaker.record_success()
        return value, None

    def _settle(self, key: Key, flight: _Flight, outcome: str,
                value: Any, error: Optional[str],
                fetched_at: Optional[float] = None) -> None:
        """Publish the flight's outcome (before waking followers)."""
        flight.outcome = outcome
        flight.value = value
        flight.error = error
        flight.fetched_at = fetched_at

    def _release(self, key: Key, flight: _Flight,
                 admit: bool = False) -> None:
        """Take *flight* out of the table, then wake its followers.

        With *admit*, the flight's settled value is first admitted into
        the policy and stored, stamped ``flight.fetched_at``, in the same
        critical section, so a fetch that succeeded takes the lock once
        after its route.
        """
        lock = self._lock
        lock.acquire()
        try:
            if admit:
                # Admit first (evictions fire the reaper), then store
                # the value: the admitted key itself is never evicted
                # by its own admission.
                self.policy.request(key)
                flight.fetched_at = self.clock.now()
                self._store[key] = _Entry(flight.value, flight.fetched_at)
                self._negative.pop(key, None)
            # Out of the table, the flight can gain no follower and no
            # Event.
            if self._flights.get(key) is flight:
                del self._flights[key]
            event = flight.event
        finally:
            lock.release()
        if event is not None:
            event.set()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _freshness(self, key: Key, entry: Optional[_Entry],
                   now: Optional[float] = None) -> Optional[str]:
        """The one freshness rule: how *entry*, the copy of *key*, serves.

        ``HIT`` while fresh, ``STALE`` past the TTL but inside the
        serve-stale budget (``ttl + stale_ttl``), ``None`` when there is
        no copy, the policy no longer holds the key, or the copy is too
        old.  *now* defaults to the clock's, read only when a TTL is
        set.  The caller holds the service lock, or (as
        :meth:`holds_copy`) takes an answer that may race it.
        """
        if entry is None or key not in self.policy:
            return None
        ttl = self.config.ttl
        if ttl is None:
            return HIT
        if now is None:
            now = self.clock.now()
        age = now - entry.fetched_at
        if age <= ttl:
            return HIT
        if age <= ttl + self.config.stale_ttl:
            return STALE
        return None

    def _stale_entry(self, key: Key, now: float) -> Optional[_Entry]:
        """The bounded-staleness fallback entry, if serving it is allowed.

        With serve-stale enabled, any copy :meth:`_freshness` would
        serve.  The caller holds the service lock.
        """
        if self.config.stale_ttl <= 0:
            return None
        entry = self._store.get(key)
        if self._freshness(key, entry, now) is None:
            return None
        return entry

    def _finish(self, key: Key, value: Any, outcome: str, coalesced: bool,
                t0: float, error: Optional[str] = None,
                span: Optional["ActiveSpan"] = None,
                side: Optional[str] = None,
                fetched_at: Optional[float] = None) -> GetResult:
        """Record and return every outcome but a fresh hit, which
        :meth:`get` settles in its own frame the same way."""
        latency = self.clock.now() - t0
        took = self.metrics.record(
            outcome, latency, coalesced,
            exemplar=span.trace_id if span is not None else None,
            side=side)
        if span is not None:
            self._end_span(span, took, outcome, error)
        return GetResult(key, value, outcome, coalesced, latency, error,
                         fetched_at)

    @staticmethod
    def _end_span(span: "ActiveSpan", took: bool, outcome: str,
                  error: Optional[str] = None) -> None:
        """End a request span; *took* is whether the ledger kept its
        trace id as a histogram exemplar."""
        if took:
            # This trace is now referenced from a histogram bucket;
            # pin it so `repro trace show <id>` can resolve it.
            span.mark("exemplar")
        span.end(outcome=outcome, **({"error": error} if error else {}))


__all__ = [
    "ERROR",
    "HIT",
    "LATENCY_RESERVOIR_SIZE",
    "MISS",
    "OUTCOMES",
    "SHED",
    "STALE",
    "CacheService",
    "GetResult",
    "OutcomeLedger",
    "ServiceConfig",
    "ServiceMetrics",
]
