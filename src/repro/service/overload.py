"""Open-loop overload robustness: arrivals, admission, adaptive limits.

The closed-loop harness in :mod:`repro.service.loadgen` self-throttles:
each thread issues its next request only after the previous one
resolved, so offered load can never exceed service capacity and the
system under test is never *overloaded*.  Qiu, Yang and Harchol-Balter
("Can Increasing the Hit Ratio Hurt Cache Throughput?", HotNets'23)
show that is exactly the regime where promotion cost matters: under
open-loop arrivals, every lock-protected LRU reordering steals serving
capacity, and a higher hit ratio can *lower* delivered throughput.
This module supplies the missing pieces:

* **Arrival schedules** -- deterministic generators of arrival times
  (Poisson, bursty on/off, diurnal sinusoid, step overload) that model
  demand independent of completions.
* **Admission queue** -- a bounded queue between arrivals and the
  service with a pluggable overflow discipline (reject-new, drop-oldest
  or LIFO service order) and deadline-aware drops: a request that
  waited longer than its deadline is *dropped*, not served late.  This
  adds a seventh outcome, :data:`DROPPED`, to the conservation
  invariant.
* **Concurrency limiters** -- :class:`StaticLimiter` reproduces the
  old ``max_inflight`` cliff; :class:`AIMDLimiter` adapts the limit to
  observed queue delay (additive increase, multiplicative decrease,
  CoDel-style: react to the *minimum* delay per interval so one slow
  request does not collapse the window).
* **Retry budget** -- a token bucket over the retry path: requests
  deposit a fraction of a token, retries withdraw a whole one, so an
  outage can multiply load by at most ``1 + deposit`` instead of
  ``max_attempts`` (the retry-storm metastability guard).
* **Service cost model** -- charges each served request CPU time plus,
  crucially, the promotion cost the policy incurred on it, *serialised
  on one lock timeline*: promotions are the six-pointer-update critical
  section of paper §2, so total promotion work bounds throughput at
  ``1 / (promotions_per_request * promotion_cost)`` no matter how many
  workers run.  This turns the ``promotions`` proxy counter into
  measured goodput.
* **The open-loop engine** -- :func:`run_open_loop`, a deterministic
  event-driven simulation on the shared
  :class:`~repro.exec.clock.Clock`: arrivals enqueue at their schedule
  times regardless of completions, dispatch is gated by the limiter,
  service times come from the cost model, and every request ends in
  exactly one of the seven outcomes.
"""

from __future__ import annotations

import math
import threading
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress, count, islice
from operator import gt
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.obs.metrics import MetricsRegistry, percentile
from repro.obs.reqtrace import NOT_SAMPLED
from repro.obs.timeseries import TimeSeriesRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.reqtrace import RequestTracer

Key = Hashable

#: The overload outcome: the request was admitted but timed out in the
#: queue (or was displaced by drop-oldest overflow) before service.
DROPPED = "dropped"

#: Queue overflow disciplines (see :class:`AdmissionQueue`).
QUEUE_POLICIES = ("fifo", "lifo", "drop-oldest")


# ----------------------------------------------------------------------
# Arrival schedules
# ----------------------------------------------------------------------

class ArrivalSchedule(ABC):
    """A deterministic open-loop demand curve.

    :meth:`times` returns the full list of arrival times in seconds
    from the schedule origin, strictly sorted.  Schedules are seeded,
    so the same configuration always produces the same demand -- the
    property every virtual-clock overload experiment leans on.
    """

    duration: float

    @abstractmethod
    def times(self) -> List[float]:
        """All arrival times in ``[0, duration)``, sorted ascending."""

    @staticmethod
    def _homogeneous(rng: np.random.Generator, rate: float, start: float,
                     end: float) -> List[float]:
        """Poisson arrivals at *rate* over ``[start, end)``."""
        if rate <= 0 or end <= start:
            return []
        out: List[float] = []
        t = start
        # Draw interarrivals in blocks: one numpy call per ~expected
        # count beats a Python-level exponential per arrival.  cumsum
        # adds each gap in order onto the running time, so every
        # arrival is the float a per-gap ``t += gap`` would give.
        expected = max(16, int(rate * (end - start) * 1.2))
        while True:
            times = rng.exponential(1.0 / rate, size=expected)
            times[0] += t
            np.cumsum(times, out=times)
            cut = int(np.searchsorted(times, end))   # first >= end
            out.extend(times[:cut].tolist())
            if cut < expected:
                return out
            t = times[-1]


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True)
class PoissonArrivals(ArrivalSchedule):
    """Memoryless arrivals at a constant *rate* (requests/second)."""

    rate: float
    duration: float
    seed: int = 0

    def __post_init__(self) -> None:
        _check_positive(rate=self.rate, duration=self.duration)

    def times(self) -> List[float]:
        rng = np.random.default_rng(self.seed)
        return self._homogeneous(rng, self.rate, 0.0, self.duration)


@dataclass(frozen=True)
class OnOffArrivals(ArrivalSchedule):
    """Bursty on/off arrivals: ``burst * rate`` for ``on_seconds``,
    then ``rate`` for ``off_seconds``, repeating.

    The mean rate is between ``rate`` and ``burst * rate``; the bursts
    are what exercise queue overflow and the limiter's decrease path.
    """

    rate: float
    duration: float
    burst: float = 4.0
    on_seconds: float = 1.0
    off_seconds: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_positive(rate=self.rate, duration=self.duration,
                        burst=self.burst, on_seconds=self.on_seconds,
                        off_seconds=self.off_seconds)

    def times(self) -> List[float]:
        rng = np.random.default_rng(self.seed)
        out: List[float] = []
        t = 0.0
        while t < self.duration:
            on_end = min(t + self.on_seconds, self.duration)
            out.extend(self._homogeneous(
                rng, self.burst * self.rate, t, on_end))
            off_end = min(on_end + self.off_seconds, self.duration)
            out.extend(self._homogeneous(rng, self.rate, on_end, off_end))
            t = off_end
        return out


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalSchedule):
    """Sinusoidal daily curve: rate(t) = rate * (1 + amplitude*sin).

    Generated by thinning a homogeneous process at the peak rate, the
    textbook non-homogeneous-Poisson construction, so interarrival
    statistics stay exact.
    """

    rate: float
    duration: float
    amplitude: float = 0.8
    period: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_positive(rate=self.rate, duration=self.duration,
                        period=self.period)
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1], got {self.amplitude}")

    def times(self) -> List[float]:
        rng = np.random.default_rng(self.seed)
        peak = self.rate * (1.0 + self.amplitude)
        candidates = self._homogeneous(rng, peak, 0.0, self.duration)
        if not candidates:
            return []
        keep = rng.random(len(candidates))
        out: List[float] = []
        for t, u in zip(candidates, keep):
            instantaneous = self.rate * (
                1.0 + self.amplitude
                * math.sin(2.0 * math.pi * t / self.period))
            if u * peak < instantaneous:
                out.append(t)
        return out


@dataclass(frozen=True)
class StepArrivals(ArrivalSchedule):
    """Step overload: ``rate`` baseline, ``peak_rate`` inside the step.

    The X6 schedule: a sustained factor-of-N surge between
    ``step_start`` and ``step_end`` (fractions of the duration),
    long enough to saturate whatever bottleneck the cost model charges.
    """

    rate: float
    duration: float
    peak_rate: float
    step_start: float = 0.3
    step_end: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        _check_positive(rate=self.rate, duration=self.duration,
                        peak_rate=self.peak_rate)
        if not 0.0 <= self.step_start < self.step_end <= 1.0:
            raise ValueError(
                f"step window must satisfy 0 <= start < end <= 1, "
                f"got [{self.step_start}, {self.step_end}]")

    def window(self) -> Tuple[float, float]:
        """The step window in seconds."""
        return (self.step_start * self.duration,
                self.step_end * self.duration)

    def times(self) -> List[float]:
        rng = np.random.default_rng(self.seed)
        start, end = self.window()
        out = self._homogeneous(rng, self.rate, 0.0, start)
        out.extend(self._homogeneous(rng, self.peak_rate, start, end))
        out.extend(self._homogeneous(rng, self.rate, end, self.duration))
        return out


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------

@dataclass(slots=True)
class QueuedRequest:
    """One admitted-but-not-yet-served request."""

    key: Key
    arrived: float


class AdmissionQueue:
    """Bounded queue between open-loop arrivals and the service.

    * ``capacity`` -- maximum queued requests; arrivals beyond it are
      rejected (shed) or displace the oldest entry, per *policy*.
    * ``policy`` -- ``"fifo"`` serves oldest-first and rejects new
      arrivals when full; ``"lifo"`` serves newest-first (the
      adaptive-LIFO trick: under overload the newest request is the
      one most likely to still meet its deadline) and rejects when
      full; ``"drop-oldest"`` serves oldest-first but admits new
      arrivals by dropping the head -- the entry that has already
      waited longest and is most likely to be dead on arrival.
    * ``deadline`` -- seconds a request may wait before it is dropped
      at dispatch time instead of served late (``None`` = wait
      forever).  Deadline-aware drop is what keeps served latency
      bounded when the queue runs deep.
    """

    def __init__(self, capacity: int, policy: str = "fifo",
                 deadline: Optional[float] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in QUEUE_POLICIES:
            raise ValueError(
                f"policy must be one of {QUEUE_POLICIES}, got {policy!r}")
        if deadline is not None and deadline <= 0:
            raise ValueError(
                f"deadline must be > 0 or None, got {deadline}")
        self.capacity = capacity
        self.policy = policy
        self.deadline = deadline
        self._entries: "deque[QueuedRequest]" = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def offer(self, key: Key, now: float
              ) -> Tuple[bool, Optional[QueuedRequest]]:
        """Admit one arrival; returns ``(admitted, displaced)``.

        ``admitted`` is False when the queue is full and the policy
        rejects new arrivals (count it as shed).  ``displaced`` is the
        oldest entry pushed out under ``drop-oldest`` (count it as
        dropped).
        """
        displaced: Optional[QueuedRequest] = None
        if len(self._entries) >= self.capacity:
            if self.policy == "drop-oldest":
                displaced = self._entries.popleft()
            else:
                return False, None
        self._entries.append(QueuedRequest(key, now))
        return True, displaced

    def take(self, now: float
             ) -> Tuple[Optional[QueuedRequest], List[QueuedRequest]]:
        """Dequeue the next serviceable request.

        Returns ``(request, expired)``: *expired* are entries whose
        deadline passed while they waited (dropped, never served);
        *request* is ``None`` when the queue emptied out.
        """
        expired: List[QueuedRequest] = []
        while self._entries:
            if self.policy == "lifo":
                entry = self._entries.pop()
            else:
                entry = self._entries.popleft()
            if (self.deadline is not None
                    and now - entry.arrived > self.deadline):
                expired.append(entry)
                continue
            return entry, expired
        return None, expired


# ----------------------------------------------------------------------
# Concurrency limiters
# ----------------------------------------------------------------------

class ConcurrencyLimiter(ABC):
    """How many requests may be in service at once, and how it moves."""

    @property
    @abstractmethod
    def limit(self) -> int:
        """The current concurrency ceiling (always >= 1)."""

    def on_complete(self, queue_delay: float, now: float) -> None:
        """Feed one completed request's observed queue delay.

        The one call that may move :attr:`limit`: :func:`run_open_loop`
        reads the limit again only after it.
        """


class StaticLimiter(ConcurrencyLimiter):
    """The legacy ``max_inflight`` behaviour: a fixed ceiling."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self._limit = limit

    @property
    def limit(self) -> int:
        return self._limit


@dataclass(frozen=True)
class AimdConfig:
    """Tuning for :class:`AIMDLimiter` (validated eagerly).

    * ``target_delay`` -- acceptable queue delay in seconds; the
      limiter's setpoint.
    * ``min_limit`` / ``max_limit`` -- bounds on the concurrency limit.
    * ``initial`` -- starting limit (defaults to ``max_limit``).
    * ``increase`` -- additive step per good interval.
    * ``decrease`` -- multiplicative factor per bad interval (0, 1).
    * ``interval`` -- seconds per adjustment window; the CoDel idea is
      to act on the *minimum* delay observed across a whole interval,
      so a single slow request cannot trigger a collapse.
    """

    target_delay: float = 0.05
    min_limit: int = 1
    max_limit: int = 64
    initial: Optional[int] = None
    increase: int = 1
    decrease: float = 0.5
    interval: float = 1.0

    def __post_init__(self) -> None:
        _check_positive(target_delay=self.target_delay,
                        interval=self.interval)
        if self.min_limit < 1:
            raise ValueError(
                f"min_limit must be >= 1, got {self.min_limit}")
        if self.max_limit < self.min_limit:
            raise ValueError(
                f"max_limit must be >= min_limit, got {self.max_limit}")
        if self.initial is not None and not (
                self.min_limit <= self.initial <= self.max_limit):
            raise ValueError(
                f"initial must be within [min_limit, max_limit], "
                f"got {self.initial}")
        if self.increase < 1:
            raise ValueError(
                f"increase must be >= 1, got {self.increase}")
        if not 0.0 < self.decrease < 1.0:
            raise ValueError(
                f"decrease must be in (0, 1), got {self.decrease}")


class AIMDLimiter(ConcurrencyLimiter):
    """Adaptive concurrency: AIMD on CoDel-style minimum queue delay.

    Completed requests report the queue delay they experienced.  Every
    ``interval`` seconds the limiter looks at the *minimum* delay seen
    in the window: above ``target_delay`` means even the luckiest
    request queued too long -- the system is genuinely congested, so
    the limit is cut multiplicatively; at or below target the limit
    creeps up additively.  The result is the classic sawtooth that
    tracks the capacity cliff instead of falling off it.

    Thread-safe: the service layer calls :meth:`on_complete` from
    worker threads.
    """

    def __init__(self, config: Optional[AimdConfig] = None) -> None:
        self.config = config or AimdConfig()
        self._lock = threading.Lock()
        self._limit = (self.config.initial
                       if self.config.initial is not None
                       else self.config.max_limit)
        self._window_min: Optional[float] = None
        self._window_started: Optional[float] = None
        #: (time, new_limit) after every adjustment, oldest first.
        self.adjustments: List[Tuple[float, int]] = []

    @property
    def limit(self) -> int:
        # Lock-free: one attribute, written only under the lock.
        return self._limit

    def on_complete(self, queue_delay: float, now: float) -> None:
        with self._lock:
            if self._window_started is None:
                self._window_started = now
            if (self._window_min is None
                    or queue_delay < self._window_min):
                self._window_min = queue_delay
            if now - self._window_started < self.config.interval:
                return
            congested = self._window_min > self.config.target_delay
            if congested:
                shrunk = int(self._limit * self.config.decrease)
                new_limit = max(self.config.min_limit, shrunk)
            else:
                new_limit = min(self.config.max_limit,
                                self._limit + self.config.increase)
            if new_limit != self._limit:
                self._limit = new_limit
                self.adjustments.append((now, new_limit))
            self._window_started = now
            self._window_min = None


def make_limiter(kind: str, static_limit: int = 8,
                 aimd: Optional[AimdConfig] = None) -> ConcurrencyLimiter:
    """``"static"`` or ``"aimd"`` -> a fresh limiter instance."""
    if kind == "static":
        return StaticLimiter(static_limit)
    if kind == "aimd":
        return AIMDLimiter(aimd)
    raise ValueError(
        f"limiter must be 'static' or 'aimd', got {kind!r}")


# ----------------------------------------------------------------------
# Retry budget
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryBudgetConfig:
    """Token bucket over the retry path (validated eagerly).

    * ``deposit`` -- tokens earned per first-try request (e.g. 0.1
      means retries may add at most ~10% extra backend load).
    * ``burst`` -- bucket capacity: how many retries a short blip may
      spend at once.
    * ``initial`` -- starting tokens (defaults to ``burst``).
    """

    deposit: float = 0.1
    burst: float = 10.0
    initial: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.deposit <= 1.0:
            raise ValueError(
                f"deposit must be in [0, 1], got {self.deposit}")
        _check_positive(burst=self.burst)
        if self.initial is not None and self.initial < 0:
            raise ValueError(
                f"initial must be >= 0, got {self.initial}")


class RetryBudget:
    """Thread-safe retry token bucket (the retry-storm guard).

    Every first-try request deposits ``deposit`` tokens (capped at
    ``burst``); every retry withdraws one whole token or is denied.
    During a sustained outage the deposits stop covering the
    withdrawals within ``burst`` retries, retries cease, and offered
    backend load stays at ``(1 + deposit) *`` the request rate instead
    of ``max_attempts *`` it -- which is the difference between an
    outage that ends when the backend recovers and one that sustains
    itself (retry-storm metastability).
    """

    def __init__(self, config: Optional[RetryBudgetConfig] = None) -> None:
        self.config = config or RetryBudgetConfig()
        self._lock = threading.Lock()
        self._tokens = (self.config.initial
                        if self.config.initial is not None
                        else self.config.burst)
        self.granted = 0
        self.denied = 0

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def record_request(self) -> None:
        """Deposit for one first-try request."""
        with self._lock:
            self._tokens = min(self.config.burst,
                               self._tokens + self.config.deposit)

    def try_spend(self) -> bool:
        """Withdraw one token for a retry; False = retry denied."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.granted += 1
                return True
            self.denied += 1
            return False


# ----------------------------------------------------------------------
# Service cost model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ServiceCostModel:
    """Per-request service time, with promotion work serialised.

    * ``base_cost`` -- seconds of parallelisable work per request
      (parsing, hashing, copying the value out).
    * ``miss_penalty`` -- extra seconds a miss spends fetching from
      the backend (also parallelisable: misses wait on I/O).
    * ``promotion_cost`` -- seconds per *promotion* the policy
      performed for this request.  Promotions mutate the eviction
      order under one lock (paper §2), so this work is charged on a
      single shared lock timeline: total system throughput can never
      exceed ``1 / (promotions_per_request * promotion_cost)``
      regardless of worker count.  FIFO pays zero; LRU pays one per
      hit; QD-LP-FIFO pays (amortised) a few percent -- which is the
      whole hit-ratio-vs-throughput trade-off, now measured.
    """

    base_cost: float = 0.001
    miss_penalty: float = 0.004
    promotion_cost: float = 0.002

    def __post_init__(self) -> None:
        _check_positive(base_cost=self.base_cost)
        if self.miss_penalty < 0:
            raise ValueError(
                f"miss_penalty must be >= 0, got {self.miss_penalty}")
        if self.promotion_cost < 0:
            raise ValueError(
                f"promotion_cost must be >= 0, got {self.promotion_cost}")

    def parallel_time(self, outcome: str) -> float:
        """Seconds of worker time for one request with *outcome*."""
        if outcome == "miss":
            return self.base_cost + self.miss_penalty
        return self.base_cost

    def lock_time(self, promotions: int) -> float:
        """Seconds of serialised lock time for *promotions* reorderings."""
        return promotions * self.promotion_cost


# ----------------------------------------------------------------------
# The open-loop engine
# ----------------------------------------------------------------------

@dataclass
class OpenLoadReport:
    """Everything one open-loop run measured.

    ``offered`` counts schedule arrivals; the conservation invariant
    is ``sum(outcomes.values()) == offered`` where ``outcomes`` spans
    the service outcomes plus :data:`DROPPED` (queue-full rejections
    land in ``shed`` alongside the service's own load shedding).
    """

    offered: int
    outcomes: Dict[str, int]
    duration: float                 # virtual seconds (see run_open_loop)
    served_latency_p50: float       # arrival -> completion (sojourn)
    served_latency_p99: float
    queue_delay_p50: float          # arrival -> dispatch
    queue_delay_p99: float
    max_queue_depth: int
    final_limit: int
    min_limit_seen: int
    limiter_adjustments: int
    lock_busy: float                # serialised promotion-lock seconds
    promotions: int
    retries_granted: int = 0
    retries_denied: int = 0

    @property
    def served(self) -> int:
        """Requests that got a value (hit / miss / replica_hit / stale)."""
        return sum(self.outcomes.get(name, 0)
                   for name in ("hit", "miss", "replica_hit", "stale"))

    @property
    def goodput(self) -> float:
        """Served requests per virtual second of the run."""
        if self.duration <= 0:
            return 0.0
        return self.served / self.duration

    @property
    def offered_rate(self) -> float:
        """Arrivals per virtual second of the run."""
        if self.duration <= 0:
            return 0.0
        return self.offered / self.duration

    @property
    def hit_ratio(self) -> float:
        """Cache-served fraction of *served* requests."""
        if self.served == 0:
            return 0.0
        hits = sum(self.outcomes.get(name, 0)
                   for name in ("hit", "replica_hit", "stale"))
        return hits / self.served

    @property
    def drop_ratio(self) -> float:
        """Fraction of offered requests dropped or shed."""
        if self.offered == 0:
            return 0.0
        lost = (self.outcomes.get(DROPPED, 0)
                + self.outcomes.get("shed", 0))
        return lost / self.offered

    def check_conservation(self) -> None:
        """Assert every offered request ended in exactly one outcome."""
        accounted = sum(self.outcomes.values())
        if accounted != self.offered:
            raise AssertionError(
                f"open-loop accounting broken: {accounted} accounted "
                f"vs {self.offered} offered ({self.outcomes})")

    def render(self) -> str:
        """Human-readable multi-line summary."""
        outcome_text = "  ".join(
            f"{name}={count}"
            for name, count in sorted(self.outcomes.items()) if count)
        return "\n".join([
            f"offered       : {self.offered} over {self.duration:.1f}s "
            f"({self.offered_rate:.0f} req/s)",
            f"outcomes      : {outcome_text or '(none)'}",
            f"goodput       : {self.goodput:.1f} req/s served "
            f"({self.served}/{self.offered}, "
            f"drop ratio {self.drop_ratio:.2%})",
            f"hit ratio     : {self.hit_ratio:.2%} of served",
            f"queue delay   : p50={self.queue_delay_p50 * 1e3:.1f}ms "
            f"p99={self.queue_delay_p99 * 1e3:.1f}ms "
            f"(depth max {self.max_queue_depth})",
            f"sojourn       : p50={self.served_latency_p50 * 1e3:.1f}ms "
            f"p99={self.served_latency_p99 * 1e3:.1f}ms",
            f"limiter       : final={self.final_limit} "
            f"min={self.min_limit_seen} "
            f"({self.limiter_adjustments} adjustments)",
            f"promotion lock: {self.lock_busy:.2f}s busy "
            f"({self.promotions} promotions)",
            f"retries       : {self.retries_granted} granted, "
            f"{self.retries_denied} budget-denied",
        ])


class _OverloadObs:
    """Optional registry mirroring for the open-loop engine."""

    def __init__(self, registry: Optional[MetricsRegistry],
                 labels: Optional[Dict[str, str]]) -> None:
        self.registry = registry
        if registry is None:
            return
        extra = dict(labels or {})
        self.offered = registry.counter(
            "overload_offered_total", "Open-loop schedule arrivals",
            **extra)
        self.served = registry.counter(
            "overload_served_total", "Requests served a value", **extra)
        self.dropped = registry.counter(
            "overload_dropped_total",
            "Requests dropped in the admission queue", **extra)
        self.shed = registry.counter(
            "overload_shed_total",
            "Requests rejected at the full admission queue", **extra)
        self.depth = registry.gauge(
            "overload_queue_depth", "Admission queue depth", **extra)
        self.limit = registry.gauge(
            "overload_limit", "Current concurrency limit", **extra)


def run_open_loop(
    get: Callable[[Key], Any],
    arrivals: Sequence[float],
    keys: Sequence[Key],
    clock: Any,
    queue: Optional[AdmissionQueue] = None,
    limiter: Optional[ConcurrencyLimiter] = None,
    cost: Optional[ServiceCostModel] = None,
    promotions_probe: Optional[Callable[[], int]] = None,
    retry_budget: Optional[RetryBudget] = None,
    timeseries: Optional[TimeSeriesRecorder] = None,
    registry: Optional[MetricsRegistry] = None,
    metric_labels: Optional[Dict[str, str]] = None,
    tracer: Optional["RequestTracer"] = None,
) -> OpenLoadReport:
    """Drive open-loop *arrivals* through *get* and measure delivery.

    A deterministic event-driven loop on *clock* (normally a
    :class:`~repro.exec.clock.VirtualClock`): requests arrive at their
    schedule times no matter what completions do, wait in *queue*
    (default: a 1024-entry FIFO), dispatch when the *limiter*
    (default: 8 static slots) grants a slot, and occupy it for the
    *cost* model's service time -- with the promotion work the policy
    performed charged on a single serialised lock timeline.  *get* is
    a :meth:`CacheService.get <repro.service.service.CacheService.get>`
    or :meth:`CacheCluster.get <repro.cluster.cluster.CacheCluster.get>`
    bound method; *promotions_probe* returns the cumulative promotion
    count behind it.  Keys are dealt to arrivals in order, cycling if
    the schedule outlasts the key sequence.

    *arrivals* must be non-decreasing, as every
    :meth:`ArrivalSchedule.times` and a closed loop's all-equal list
    are; otherwise a :class:`ValueError` names the first arrival that
    goes back, before anything runs.  The loop reads the arrivals in
    order and keeps only the in-flight completions on a heap, never
    more than the limiter's limit.  Each event is the next arrival
    unless the earliest completion is strictly earlier: an arrival
    wins a tie, and completions due at one instant finish in the order
    they were dispatched.  After every event, queued requests dispatch
    while the limiter has a free slot.

    With a *tracer* (:class:`~repro.obs.reqtrace.RequestTracer` on the
    same *clock*) the engine owns the per-request root span: queue wait
    and the serialised promotion-lock interval become child spans, the
    context is propagated into *get* -- which must then accept a
    ``ctx=`` keyword, as ``CacheService.get``/``CacheCluster.get`` do --
    and admission drops become ``dropped`` roots the tail sampler
    always keeps.

    The report's ``duration`` is the last arrival time, except that a
    run whose arrivals all fall at one instant (a closed loop) is
    measured over the time it took to drain.
    """
    if not keys:
        raise ValueError("keys must be non-empty")
    # One C-level pass: the index of the first arrival that goes back.
    back = next(compress(count(1), map(gt, arrivals,
                                       islice(arrivals, 1, None))), None)
    if back is not None:
        raise ValueError(
            f"arrivals must be non-decreasing: arrivals[{back}] = "
            f"{arrivals[back]} is before arrivals[{back - 1}] = "
            f"{arrivals[back - 1]}")
    # `is None` checks: an empty AdmissionQueue is falsy (len() == 0),
    # so `queue or default` would silently discard the caller's queue.
    if queue is None:
        queue = AdmissionQueue(capacity=1024)
    if limiter is None:
        limiter = StaticLimiter(8)
    cost = cost or ServiceCostModel()
    obs = _OverloadObs(registry, metric_labels)
    instrumented = registry is not None
    outcomes: Dict[str, int] = {DROPPED: 0, "shed": 0}
    sojourns: List[float] = []
    delays: List[float] = []
    # In-flight requests, earliest completion first, as (completion
    # time, dispatch number, queue delay); its length is the inflight
    # count.
    completions: List[Tuple[float, int, float]] = []
    dispatched = 0
    lock_free_at = 0.0
    lock_busy = 0.0
    max_depth = 0
    # The queue's own deque: its depth is read without a method call.
    waiting = queue._entries
    # The limit moves only in on_complete, so it is read after each.
    limit = min_limit_seen = limiter.limit
    # The gauges' last set values: each is set again only when it moves.
    shown_depth = shown_limit = None
    # In this single-threaded loop only get() promotes, so the reading
    # after one get is the reading before the next: one probe call per
    # dispatched request, plus this opening reading.
    promotions_before = promotions_probe() if promotions_probe else 0
    promotions_seen = promotions_before

    offered = len(arrivals)
    duration = float(arrivals[-1]) if offered else 0.0
    origin = clock.now()
    index = 0
    next_at = origin + float(arrivals[0]) if offered else 0.0

    def drop(entry: QueuedRequest, reason: str = "deadline") -> None:
        outcomes[DROPPED] += 1
        if instrumented:
            obs.dropped.inc()
        if tracer is not None:
            # A dropped request still gets a root: queue wait is all
            # that happened to it, and "dropped" is a tail-keep outcome.
            now = clock.now()
            root = tracer.start("request", start=entry.arrived,
                                key=repr(entry.key))
            if root is not None:
                root.add_span("queue.wait", entry.arrived, now,
                              reason=reason)
                root.end(outcome=DROPPED, at=now)

    while True:
        if completions and (index == offered
                            or completions[0][0] < next_at):
            at, _, delay = heappop(completions)
            clock.sleep_until(at)
            now = clock.now()
            limiter.on_complete(delay, now)
            limit = limiter.limit
            if limit < min_limit_seen:
                min_limit_seen = limit
        elif index < offered:
            key = keys[index % len(keys)]
            index += 1
            clock.sleep_until(next_at)
            now = clock.now()
            if index < offered:
                next_at = origin + float(arrivals[index])
            if instrumented:
                obs.offered.inc()
            admitted, displaced = queue.offer(key, now)
            if displaced is not None:
                drop(displaced, reason="displaced")
            if not admitted:
                outcomes["shed"] += 1
                if instrumented:
                    obs.shed.inc()
        else:
            break

        while waiting and len(completions) < limit:
            entry, expired = queue.take(now)
            for dead in expired:
                drop(dead)
            if entry is None:
                break
            arrived = entry.arrived
            delay = now - arrived
            delays.append(delay)
            if tracer is None:
                root = None
                result = get(entry.key)
            else:
                root = tracer.start("request", start=arrived,
                                    key=repr(entry.key))
                if root is not None and delay > 0.0:
                    root.add_span("queue.wait", arrived, now,
                                  depth=len(waiting))
                # Always propagate a context once a tracer owns the
                # roots: NOT_SAMPLED tells the service the head-sampling
                # decision is made, so it doesn't start a root of its
                # own for requests that lost the coin flip.
                result = get(entry.key,
                             ctx=root.ctx if root is not None
                             else NOT_SAMPLED)
            promos = 0
            if promotions_probe:
                reading = promotions_probe()
                promos = reading - promotions_seen
                promotions_seen = reading
            outcome = result.outcome
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if instrumented and getattr(result, "ok", False):
                obs.served.inc()
            # The worker holds the request for its parallel time; the
            # promotion work additionally queues on the shared lock
            # timeline, which is the throughput ceiling under load.
            now_after = clock.now()   # get() may have advanced the clock
            work_start = max(now, now_after)
            lock_time = cost.lock_time(promos)
            completion = work_start + cost.parallel_time(outcome)
            if lock_time > 0.0:
                lock_start = max(work_start, lock_free_at)
                lock_free_at = lock_start + lock_time
                lock_busy += lock_time
                completion = max(completion, lock_free_at)
                if root is not None:
                    # The promotion-cost span: time this request's
                    # promotions occupied the serialised lock timeline
                    # (the paper's per-request cost of eager promotion).
                    root.add_span("promotion.lock", lock_start,
                                  lock_free_at, promotions=promos,
                                  waited=round(lock_start - work_start, 9))
            if root is not None:
                root.end(outcome=outcome, at=completion)
            sojourns.append(completion - arrived)
            heappush(completions, (completion, dispatched, delay))
            dispatched += 1

        depth = len(waiting)
        if depth > max_depth:
            max_depth = depth
        if instrumented:
            if depth != shown_depth:
                obs.depth.set(depth)
                shown_depth = depth
            if limit != shown_limit:
                obs.limit.set(limit)
                shown_limit = limit
        if timeseries is not None:
            timeseries.maybe_sample(now)

    # The event loop drains fully (dispatch runs after every completion
    # until the queue empties), so this is a conservation backstop: any
    # entry somehow still queued is accounted as dropped, never lost.
    while len(queue):  # pragma: no cover - drain is complete by design
        entry, dead = queue.take(clock.now())
        for stale in dead:
            drop(stale)
        if entry is not None:
            drop(entry)

    if offered and arrivals[0] == arrivals[-1]:
        duration = clock.now() - (origin + float(arrivals[0]))
    report = OpenLoadReport(
        offered=offered,
        outcomes={name: value for name, value in outcomes.items()},
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
    return report


def make_schedule(kind: str, rate: float, duration: float,
                  peak_rate: Optional[float] = None,
                  burst: float = 4.0, seed: int = 0) -> ArrivalSchedule:
    """CLI-friendly schedule factory (``poisson|onoff|diurnal|step``)."""
    if kind == "poisson":
        return PoissonArrivals(rate=rate, duration=duration, seed=seed)
    if kind == "onoff":
        return OnOffArrivals(rate=rate, duration=duration, burst=burst,
                             seed=seed)
    if kind == "diurnal":
        return DiurnalArrivals(rate=rate, duration=duration,
                               period=max(duration / 2.0, 1e-9),
                               seed=seed)
    if kind == "step":
        return StepArrivals(rate=rate, duration=duration,
                            peak_rate=peak_rate or burst * rate,
                            seed=seed)
    raise ValueError(
        f"schedule must be one of poisson|onoff|diurnal|step, "
        f"got {kind!r}")


__all__ = [
    "AIMDLimiter",
    "AdmissionQueue",
    "AimdConfig",
    "ArrivalSchedule",
    "ConcurrencyLimiter",
    "DROPPED",
    "DiurnalArrivals",
    "OnOffArrivals",
    "OpenLoadReport",
    "PoissonArrivals",
    "QUEUE_POLICIES",
    "QueuedRequest",
    "RetryBudget",
    "RetryBudgetConfig",
    "ServiceCostModel",
    "StaticLimiter",
    "StepArrivals",
    "make_limiter",
    "make_schedule",
    "run_open_loop",
]
