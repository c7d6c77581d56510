"""A sharded cache cluster over independent :class:`CacheService` shards.

:class:`CacheCluster` is the routing tier the ROADMAP asks for: N
single-node services (each with its own backend, circuit breaker,
serve-stale window and fault plan -- one **fault domain** per shard)
behind one consistent-hash ring.  The paper's operational claim scales
with it: every promotion a policy performs still happens inside one
shard's critical section, so lazy-promotion policies keep their edge
shard by shard, and the cluster adds the availability story on top:

* **Consistent placement** -- keys map to shards via
  :class:`~repro.cluster.ring.HashRing` (virtual nodes), so membership
  changes move only ring-adjacent arcs, never the whole key space.
* **Replication of hot keys** -- once a key's observed frequency
  crosses ``hot_key_threshold``, fetched values are also pushed to the
  next ``replicas`` distinct shards.  When the primary's breaker is
  open or the shard is down, reads fall back to those copies
  (outcome ``replica_hit``).
* **Per-shard fault domains** -- a shard outage (``kill`` windows on
  the shared clock, or a manual ``set_down``) makes only that shard's
  arc degrade; the rest of the ring serves unaffected.
* **Hot-key mitigation** -- an optional tiny front cache absorbs the
  very hottest keys before they reach any shard, so a single viral key
  cannot saturate its primary.
* **Bounded rebalancing** -- :meth:`add_shard` / :meth:`remove_shard`
  migrate only the cached entries whose ownership actually moved and
  report exactly how many.

Accounting is conservation-checked cluster-wide: every request ends in
exactly one of ``hit | miss | replica_hit | stale | shed | error``, and
``hit + miss + replica_hit + stale + shed + error == arrivals`` holds
under arbitrary concurrency (the stress suite hammers it with a shard
dying mid-run); arrivals are counted as a get enters, apart from the
outcomes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Hashable,
                    List, Optional, Tuple)

from repro.core.base import validate_capacity
from repro.exec.clock import Clock, SystemClock
from repro.obs.metrics import MetricsRegistry
from repro.cluster.ring import DEFAULT_VNODES, HashRing, moved_keys
from repro.obs.reqtrace import NOT_SAMPLED
from repro.service.service import (
    ERROR,
    HIT,
    MISS,
    SHED,
    STALE,
    CacheService,
    OutcomeLedger,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.reqtrace import ActiveSpan, RequestTracer, TraceContext

Key = Hashable

REPLICA_HIT = "replica_hit"   # primary unavailable; a replica's copy served

#: Every cluster request resolves to exactly one of these.
CLUSTER_OUTCOMES = (HIT, MISS, REPLICA_HIT, STALE, SHED, ERROR)


@dataclass(frozen=True)
class ClusterConfig:
    """Routing/replication knobs for :class:`CacheCluster` (validated).

    * ``vnodes`` -- virtual nodes per shard on the hash ring.
    * ``replicas`` -- replica copies kept *in addition to* the primary
      for hot keys (0 disables replication).
    * ``hot_key_threshold`` -- observed requests after which a key
      counts as hot (replicated + front-cache eligible).  1 replicates
      everything touched twice; higher values focus on the true head.
    * ``hot_tracker_size`` -- bounded size of the frequency tracker.
    * ``front_cache_size`` -- entries in the tiny front cache
      (0 disables it).
    * ``front_cache_ttl`` -- seconds a front-cache copy may be served
      after its admission (never past its shard's TTL); keeps the
      mitigation window, and therefore staleness, tiny.
    """

    vnodes: int = DEFAULT_VNODES
    replicas: int = 1
    hot_key_threshold: int = 8
    hot_tracker_size: int = 1024
    front_cache_size: int = 0
    front_cache_ttl: float = 1.0

    def __post_init__(self) -> None:
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.replicas < 0:
            raise ValueError(
                f"replicas must be >= 0, got {self.replicas}")
        if self.hot_key_threshold < 1:
            raise ValueError(
                f"hot_key_threshold must be >= 1, "
                f"got {self.hot_key_threshold}")
        if self.hot_tracker_size < 1:
            raise ValueError(
                f"hot_tracker_size must be >= 1, "
                f"got {self.hot_tracker_size}")
        if self.front_cache_size < 0:
            raise ValueError(
                f"front_cache_size must be >= 0, "
                f"got {self.front_cache_size}")
        if self.front_cache_ttl <= 0:
            raise ValueError(
                f"front_cache_ttl must be > 0, "
                f"got {self.front_cache_ttl}")


class HotKeyTracker:
    """Bounded request-frequency tracker with periodic top-k pruning.

    A plain dict of counts, pruned to the hottest half whenever it
    doubles past ``size`` -- amortised O(log size) per observation, no
    per-request scans, deterministic.  Precise enough to find the Zipf
    head, which is all hot-key replication needs.  ``observed`` counts
    every observation, pruned or not: the cluster's arrivals.
    """

    def __init__(self, size: int = 1024, threshold: int = 8) -> None:
        self.size = validate_capacity(size, what="size")
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.observed = 0
        self._counts: Dict[Key, int] = {}
        self._lock = threading.Lock()

    def observe(self, key: Key) -> bool:
        """Count one request for *key*; returns whether it is hot."""
        # Every get takes this lock, so its acquire and release are
        # spelled out, which costs less per call than `with`: see "A
        # request pays for its locks" in docs/performance.md.
        lock = self._lock
        lock.acquire()
        try:
            self.observed += 1
            count = self._counts.get(key, 0) + 1
            self._counts[key] = count
            if len(self._counts) > 2 * self.size:
                self._prune()
            return count >= self.threshold
        finally:
            lock.release()

    def _prune(self) -> None:
        import heapq
        keep = heapq.nlargest(self.size, self._counts.items(),
                              key=lambda item: item[1])
        self._counts = dict(keep)

    def is_hot(self, key: Key) -> bool:
        """Whether *key* has crossed the threshold (no count taken)."""
        with self._lock:
            return self._counts.get(key, 0) >= self.threshold

    def hot_keys(self) -> List[Key]:
        """Currently-hot keys, hottest first."""
        with self._lock:
            items = [(count, repr(key), key)
                     for key, count in self._counts.items()
                     if count >= self.threshold]
        items.sort(reverse=True)
        return [key for _, _, key in items]


class FrontCache:
    """A tiny TTL'd LRU in front of the ring (hot-key mitigation).

    Holds a handful of the hottest keys' values so a viral key is
    answered before it reaches -- and serialises on -- its primary
    shard.  The TTL bounds how stale the mitigation can get, and a copy
    never outlives its own freshness: it is served until the earlier of
    ``ttl`` after its admission and the serving shard's TTL after it
    was fetched.
    """

    def __init__(self, size: int, ttl: float, clock: Clock) -> None:
        self.size = validate_capacity(size, what="size")
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        self.ttl = ttl
        self.clock = clock
        self._lock = threading.Lock()
        #: key -> (value, admitted at, fetched at, fresh for)
        self._entries: Dict[Key, tuple] = {}

    def get(self, key: Key) -> Optional[Tuple[Any]]:
        """The cached value as a 1-tuple (``None`` caches cleanly), or
        ``None`` on miss/expiry."""
        now = self.clock.now()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            value, stored_at, fetched_at, fresh_for = entry
            if now - stored_at > self.ttl or (
                    fresh_for is not None and now - fetched_at > fresh_for):
                del self._entries[key]
                return None
            # LRU touch: move to the MRU end.
            del self._entries[key]
            self._entries[key] = entry
            return (value,)

    def put(self, key: Key, value: Any, fetched_at: Optional[float] = None,
            fresh_for: Optional[float] = None) -> None:
        """Admit *key* -> *value*, a copy fetched at *fetched_at* (default:
        now) that stays fresh for *fresh_for* seconds from then, as its
        shard's TTL says (``None``: no limit of its own)."""
        now = self.clock.now()
        with self._lock:
            self._entries.pop(key, None)
            if len(self._entries) >= self.size:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
            self._entries[key] = (value, now,
                                  now if fetched_at is None else fetched_at,
                                  fresh_for)

    def invalidate(self, key: Key) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@dataclass(slots=True)
class ClusterGetResult:
    """What one cluster request resolved to."""

    key: Key
    value: Any
    outcome: str            # one of CLUSTER_OUTCOMES
    shard: Optional[str]    # shard that served it (None = front cache)
    latency: float          # seconds on the cluster clock
    front: bool = False     # answered by the front cache
    error: Optional[str] = None
    #: replica shards this request pushed its value to (hot keys)
    replicated_to: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """Whether a value was served."""
        return self.outcome in (HIT, MISS, REPLICA_HIT, STALE)


def ClusterMetrics(arrivals: Callable[[], int],
                   registry: Optional[MetricsRegistry] = None
                   ) -> OutcomeLedger:
    """The cluster-wide ledger (the conservation invariant).

    :data:`CLUSTER_OUTCOMES` plus front-cache, replication and
    replica-probe counters, mirrored as ``cluster_*``; the cluster
    itself maintains the ring-state gauges ``cluster_ring_nodes`` and
    ``cluster_shard_up{shard=}``.  ``arrivals`` reads how many requests
    have entered the cluster; it is counted apart from the outcomes
    (:class:`CacheCluster` counts them in its hot-key tracker), so
    ``check_conservation`` compares two independent counts.
    """
    return OutcomeLedger("cluster", CLUSTER_OUTCOMES, {
        "front_hits": "Requests absorbed by the front cache",
        "replications": "Hot-key values pushed to replica shards",
        "replica_probes": "Replica reads attempted while a primary "
                          "was unavailable",
    }, flag="front_hits", registry=registry, arrivals=arrivals)


@dataclass
class RebalanceReport:
    """What one membership change moved (and what it did not)."""

    joined: Optional[str] = None
    left: Optional[str] = None
    keys_before: int = 0          # cached keys examined
    keys_moved: int = 0           # cached keys whose primary changed
    migrated: int = 0             # moved entries copied to new owners
    dropped: int = 0              # moved entries invalidated only
    by_shard: Dict[str, int] = field(default_factory=dict)

    @property
    def moved_fraction(self) -> float:
        """Fraction of examined keys that changed primary."""
        if self.keys_before == 0:
            return 0.0
        return self.keys_moved / self.keys_before

    def render(self) -> str:
        event = (f"join {self.joined}" if self.joined
                 else f"leave {self.left}")
        per_shard = "  ".join(f"{name}:{count}"
                              for name, count in sorted(self.by_shard.items()))
        return (f"rebalance ({event}): {self.keys_moved}/{self.keys_before} "
                f"cached keys moved ({self.moved_fraction:.1%}); "
                f"{self.migrated} migrated, {self.dropped} dropped"
                + (f"  [{per_shard}]" if per_shard else ""))


class _DownWindows:
    """Scheduled + manual per-shard down state on the shared clock."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._windows: Dict[str, List[Tuple[float, float]]] = {}
        self._manual: Dict[str, bool] = {}
        # Shards with a window that has not ended or a manual down
        # mark: the only ones is_down needs the lock for.  Replaced
        # whole, under it.
        self._affected: FrozenSet[str] = frozenset()

    def add_window(self, shard: str, start: float, end: float) -> None:
        if end <= start:
            raise ValueError(
                f"down window must have end > start, got [{start}, {end})")
        with self._lock:
            self._windows.setdefault(shard, []).append(
                (float(start), float(end)))
            self._affected = self._affected | {shard}

    def set_manual(self, shard: str, down: bool) -> None:
        with self._lock:
            self._manual[shard] = bool(down)
            self._affected = frozenset(self._windows).union(
                name for name, marked in self._manual.items() if marked)

    def is_down(self, shard: str, now: Optional[float] = None) -> bool:
        """Whether *shard* is down at *now* (default: the clock's now).

        The first check that finds every window of an unmarked shard
        ended forgets them, so later checks of that shard take no lock;
        a window that has not started keeps it named.  A check racing
        that close, like one racing kill/set_down, may be answered as
        either side of it: a check for a *now* inside the window that
        runs after the close reads the shard up.
        """
        # Lock-free read: _affected is one attribute, replaced whole
        # under the lock, so a check racing a change sees the set from
        # just before or just after it -- either is a valid order.
        if shard not in self._affected:
            return False
        if now is None:
            now = self._clock.now()
        with self._lock:
            if self._manual.get(shard, False):
                return True
            windows = self._windows.get(shard, ())
            if any(start <= now < end for start, end in windows):
                return True
            if all(end <= now for _, end in windows):
                self._windows.pop(shard, None)
                self._affected = self._affected - {shard}
            return False


class CacheCluster:
    """Consistent-hash router over named :class:`CacheService` shards.

    ``shards`` maps shard names to fully-constructed services; each
    service should share the cluster's ``clock`` (the
    :func:`build_cluster` helper wires all of this, including one
    fault plan and breaker per shard and per-shard metric labels).
    The single public serving operation is :meth:`get`.
    """

    def __init__(
        self,
        shards: Dict[str, CacheService],
        config: Optional[ClusterConfig] = None,
        clock: Optional[Clock] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional["RequestTracer"] = None,
    ) -> None:
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        for name, service in shards.items():
            if not isinstance(service, CacheService):
                raise TypeError(
                    f"shard {name!r} must be a CacheService, "
                    f"got {type(service).__name__}")
        self.config = config or ClusterConfig()
        self.clock = clock or SystemClock()
        # Request tracing is opt-in; shards should share this tracer
        # (build_cluster wires it) so their spans nest under ours.
        self.tracer = tracer
        self.shards: Dict[str, CacheService] = dict(shards)
        self.ring = HashRing(self.shards, vnodes=self.config.vnodes)
        tracker = HotKeyTracker(
            self.config.hot_tracker_size, self.config.hot_key_threshold)
        self.hot_tracker = tracker
        # The tracker's lock, taken by every get anyway, counts arrivals;
        # reading the one int it writes needs no lock under the GIL.
        self.metrics = ClusterMetrics(lambda: tracker.observed, registry)
        self.registry = registry
        self.front_cache: Optional[FrontCache] = (
            FrontCache(self.config.front_cache_size,
                       self.config.front_cache_ttl, self.clock)
            if self.config.front_cache_size > 0 else None)
        self._down = _DownWindows(self.clock)
        self._membership_lock = threading.Lock()
        self._ring_gauge = None
        self._up_gauges: Dict[str, Any] = {}
        # What each cluster_shard_up gauge shows (True = down), so a
        # check writes the gauge only when the state it sees differs.
        self._shown_down: Dict[str, bool] = {}
        if registry is not None:
            self._ring_gauge = registry.gauge(
                "cluster_ring_nodes", "Shards currently on the ring")
            self._ring_gauge.set(len(self.ring))
            for name in self.shards:
                self._up_gauges[name] = registry.gauge(
                    "cluster_shard_up", "1 = shard serving, 0 = down",
                    shard=name)
                self._show_shard_state(name, down=False)

    # ------------------------------------------------------------------
    # Serving path
    # ------------------------------------------------------------------
    def get(self, key: Key,
            ctx: Optional["TraceContext"] = None) -> ClusterGetResult:
        """Serve one request for *key* (thread-safe).

        ``ctx`` optionally joins an existing request trace (e.g. the
        open-loop engine's root span); shard-level spans then nest
        under this cluster hop.
        """
        t0 = self.clock.now()
        span = None
        if self.tracer is not None and ctx is not NOT_SAMPLED:
            span = self.tracer.start("cluster.get", ctx=ctx, start=t0,
                                     key=repr(key))
        # Once the cluster owns the sampling decision, un-sampled
        # requests propagate NOT_SAMPLED so the per-shard services
        # (which share this tracer) don't head-sample fresh roots of
        # their own mid-stack.
        if span is not None:
            child_ctx = span.ctx
        elif self.tracer is not None:
            child_ctx = NOT_SAMPLED
        else:
            child_ctx = ctx
        hot = self.hot_tracker.observe(key)  # also counts the arrival

        # 1. Front cache: absorb the very hottest keys before routing.
        if self.front_cache is not None:
            boxed = self.front_cache.get(key)
            if boxed is not None:
                if span is not None:
                    span.note(front_cache=True)
                return self._finish(key, boxed[0], HIT, None, t0,
                                    front=True, span=span)

        # A hot key's placement is remembered: its next gets skip the
        # hash.  Cold keys (most of a churning workload) are not, so
        # they never crowd the hot rows out of the bounded memo.
        owners = self.ring.owners(key, 1 + self.config.replicas,
                                  remember=hot)
        primary, replicas = owners[0], owners[1:]
        if span is not None:
            span.note(shard=primary)

        # 2. Primary down or failing fast: degrade along the replica
        #    set.  A cached copy serves as ``replica_hit``; a cold key
        #    fails over entirely -- the first healthy replica shard
        #    fetches through its own origin (the shard died, not the
        #    backend).  With replication disabled there is nowhere to
        #    go and the arc degrades honestly to errors.  A primary no
        #    down window or mark names, whose gauge shows it up and
        #    whose breaker has never left closed, is serving: neither
        #    check runs.
        service = self.shards[primary]
        breaker = service.breaker
        primary_down = unavailable = False
        if (primary in self._down._affected or self._shown_down.get(primary)
                or (breaker is not None and breaker.transitions)):
            primary_down = self._shard_down(primary, t0)
            unavailable = primary_down or service.breaker_open
        if unavailable:
            if span is not None:
                if primary_down:
                    span.note(primary_down=True)
                else:
                    span.note(primary_breaker="open")
                    span.mark("breaker-open")
            served = self._try_replicas(key, replicas, t0, span=span)
            if served is not None:
                return served
            if primary_down:
                fallback = next(
                    (name for name in replicas if not self._shard_down(name)),
                    None)
                if fallback is None:
                    return self._finish(
                        key, None, ERROR, primary, t0,
                        error=f"shard {primary!r} down; no replica "
                              f"could serve {key!r}", span=span)
                if span is not None:
                    span.note(failover=fallback)
                result = self.shards[fallback].get(key, ctx=child_ctx)
                return self._finish(key, result.value, result.outcome,
                                    fallback, t0, error=result.error,
                                    span=span)
            # Breaker open but the shard process is up: let the shard
            # degrade deterministically (stale / fast error).

        # 3. Normal path: the primary shard serves.
        result = service.get(key, child_ctx)
        outcome = result.outcome

        # 4. Backend failed at the primary: last-ditch replica read.
        if outcome == ERROR and replicas:
            served = self._try_replicas(key, replicas, t0, span=span)
            if served is not None:
                return served

        # 5. Hot-key replication + front-cache admission.  A hot key's
        #    fresh value is pushed, with its fetch time, to every
        #    healthy replica that does not already hold a servable copy
        #    (a fetch refreshes them all), and admitted into the front
        #    cache, which serves it no longer than the primary's TTL
        #    allows; a stale value goes nowhere.
        #    As for the primary, a replica is checked for being down
        #    only when a down window or mark names it or its gauge
        #    shows it down.
        pushed: Tuple[str, ...] = ()
        if hot and (outcome == HIT or outcome == MISS):
            if replicas:
                named = self._down._affected
                for name in replicas:
                    if ((name in named or self._shown_down.get(name))
                            and self._shard_down(name)):
                        continue
                    replica = self.shards[name]
                    if outcome == HIT and replica.holds_copy(key):
                        continue
                    replica.put(key, result.value, result.fetched_at)
                    pushed += (name,)
                if pushed:
                    self.metrics.record_replication(len(pushed))
            if self.front_cache is not None:
                self.front_cache.put(key, result.value, result.fetched_at,
                                     service.config.ttl)

        # The primary served: settled in this frame as _finish would.
        latency = self.clock.now() - t0
        took = self.metrics.record(
            outcome, latency, False,
            span.trace_id if span is not None else None)
        if span is not None:
            self._end_span(span, took, outcome, primary, result.error)
        return ClusterGetResult(key, result.value, outcome, primary, latency,
                                False, result.error, pushed)

    #: alias so the cluster can stand in where a callable is expected
    __call__ = get

    def _try_replicas(self, key: Key, replicas: List[str], t0: float,
                      span: Optional["ActiveSpan"] = None
                      ) -> Optional[ClusterGetResult]:
        """Read *key* from its replica shards, in ring order."""
        for name in replicas:
            if self._shard_down(name):
                continue
            self.metrics.record_replica_probe()
            probe = (span.child("replica.peek", shard=name)
                     if span is not None else None)
            peeked = self.shards[name].peek(key, allow_stale=True)
            if probe is not None:
                probe.end(found=peeked is not None,
                          **({"outcome": peeked.outcome}
                             if peeked is not None else {}))
            if peeked is not None:
                outcome = REPLICA_HIT if peeked.outcome == HIT else STALE
                return self._finish(key, peeked.value, outcome, name, t0,
                                    span=span)
        return None

    def _shard_down(self, name: str, now: Optional[float] = None) -> bool:
        """Whether shard *name* is down at *now* (default: the clock's now).

        ``cluster_shard_up`` keeps showing the state each shard had at
        its last check, but is written only when that state changes.
        """
        down = self._down.is_down(name, now)
        # Lock-free read of one dict value.  Racing checks that see
        # different states may write the gauge in either order, as
        # racing writes always could; the next check corrects it.
        if self._shown_down.get(name, down) != down:
            self._show_shard_state(name, down)
        return down

    def _show_shard_state(self, name: str, down: bool) -> None:
        self._shown_down[name] = down
        self._up_gauges[name].set(0 if down else 1)

    def _finish(self, key: Key, value: Any, outcome: str,
                shard: Optional[str], t0: float, front: bool = False,
                error: Optional[str] = None,
                span: Optional["ActiveSpan"] = None,
                replicated_to: Tuple[str, ...] = ()) -> ClusterGetResult:
        """Record and return a request the primary did not serve (front
        cache, replicas, failover); :meth:`get` settles the rest."""
        latency = self.clock.now() - t0
        took = self.metrics.record(
            outcome, latency, front,
            exemplar=span.trace_id if span is not None else None)
        if span is not None:
            self._end_span(span, took, outcome, shard, error)
        return ClusterGetResult(key, value, outcome, shard, latency, front,
                                error, replicated_to)

    @staticmethod
    def _end_span(span: "ActiveSpan", took: bool, outcome: str,
                  shard: Optional[str], error: Optional[str]) -> None:
        """End a request span; *took* is whether the ledger kept its
        trace id as a histogram exemplar."""
        if took:
            span.mark("exemplar")
        if shard is not None:
            span.note(served_by=shard)
        span.end(outcome=outcome, **({"error": error} if error else {}))

    # ------------------------------------------------------------------
    # Fault domains
    # ------------------------------------------------------------------
    def kill(self, shard: str, start: float, end: float) -> None:
        """Schedule shard *shard* down for ``[start, end)`` clock time.

        Requests routed to it inside the window fail over to replicas
        or error; the shard's cached contents survive and serve again
        once the window closes (a crash-restart, not a decommission).
        """
        self._require_shard(shard)
        self._down.add_window(shard, start, end)

    def set_down(self, shard: str, down: bool = True) -> None:
        """Manually mark *shard* down/up (real-clock stress tests)."""
        self._require_shard(shard)
        self._down.set_manual(shard, down)

    def shard_is_down(self, shard: str) -> bool:
        """Whether *shard* is down right now."""
        self._require_shard(shard)
        return self._down.is_down(shard)

    def _require_shard(self, shard: str) -> None:
        if shard not in self.shards:
            raise KeyError(
                f"no shard {shard!r} (members: "
                f"{', '.join(sorted(self.shards))})")

    # ------------------------------------------------------------------
    # Membership / rebalancing
    # ------------------------------------------------------------------
    def add_shard(self, name: str, service: CacheService,
                  migrate: bool = True) -> RebalanceReport:
        """Join *service* as shard *name*, rebalancing bounded arcs.

        Only cached entries whose primary moved (necessarily onto the
        new shard) are touched: with ``migrate`` they are copied to the
        new owner then invalidated at the old one, otherwise just
        invalidated.  Everything else keeps serving untouched.
        """
        if not isinstance(service, CacheService):
            raise TypeError(
                f"shard {name!r} must be a CacheService, "
                f"got {type(service).__name__}")
        with self._membership_lock:
            if name in self.shards:
                raise ValueError(f"shard {name!r} already in the cluster")
            cached = {shard: self.shards[shard].cached_keys()
                      for shard in self.shards}
            before = self.ring.assignments(
                [key for keys in cached.values() for key in keys])
            self.ring.add(name)
            self.shards[name] = service
            report = self._rebalance(cached, before, migrate)
            report.joined = name
            self._after_membership_change(name, up=True)
            return report

    def remove_shard(self, name: str,
                     migrate: bool = True) -> RebalanceReport:
        """Gracefully drain shard *name* off the ring.

        Its cached entries fall to the ring-adjacent shards (migrated
        when ``migrate``); keys owned by other shards do not move --
        the consistent-hashing guarantee the property tests pin down.
        """
        with self._membership_lock:
            self._require_shard(name)
            if len(self.shards) == 1:
                raise ValueError(
                    "cannot remove the last shard of a cluster")
            cached = {shard: self.shards[shard].cached_keys()
                      for shard in self.shards}
            before = self.ring.assignments(
                [key for keys in cached.values() for key in keys])
            self.ring.remove(name)
            leaving = self.shards.pop(name)
            cached_leaving = cached.pop(name, [])
            report = self._rebalance(cached, before, migrate,
                                     extra={name: (leaving,
                                                   cached_leaving)})
            report.left = name
            self._after_membership_change(name, up=False)
            return report

    def _rebalance(self, cached: Dict[str, List[Key]],
                   before: Dict[Key, str], migrate: bool,
                   extra: Optional[Dict[str, tuple]] = None
                   ) -> RebalanceReport:
        """Move cached entries whose primary changed; count everything."""
        report = RebalanceReport(keys_before=len(before))
        moved = set(moved_keys(before,
                               self.ring.assignments(list(before))))
        sources: List[Tuple[str, CacheService, List[Key]]] = [
            (shard, self.shards[shard], keys)
            for shard, keys in cached.items()]
        for shard, (service, keys) in (extra or {}).items():
            sources.append((shard, service, keys))
        for shard, service, keys in sources:
            for key in keys:
                if key not in moved and shard in self.shards:
                    continue
                new_owner = self.ring.primary(key)
                if new_owner == shard:
                    continue
                report.keys_moved += 1
                report.by_shard[shard] = report.by_shard.get(shard, 0) + 1
                if migrate:
                    # A migrated copy keeps its age on the new owner.
                    peeked = service.peek(key, allow_stale=True)
                    if peeked is not None:
                        self.shards[new_owner].put(key, peeked.value,
                                                   peeked.fetched_at)
                        report.migrated += 1
                    else:
                        report.dropped += 1
                else:
                    report.dropped += 1
                service.invalidate(key)
                if self.front_cache is not None:
                    self.front_cache.invalidate(key)
        return report

    def _after_membership_change(self, name: str, up: bool) -> None:
        if self._ring_gauge is not None:
            self._ring_gauge.set(len(self.ring))
        if self.registry is not None and up and name not in self._up_gauges:
            self._up_gauges[name] = self.registry.gauge(
                "cluster_shard_up", "1 = shard serving, 0 = down",
                shard=name)
        if name in self._up_gauges:
            self._show_shard_state(name, down=not up)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_snapshots(self) -> Dict[str, Dict[str, int]]:
        """Per-shard service ledger snapshots."""
        return {name: service.metrics.snapshot()
                for name, service in self.shards.items()}

    def breaker_transitions(self) -> List[Tuple[float, str, str, str]]:
        """Merged ``(time, shard, from, to)`` transitions, time-ordered."""
        merged: List[Tuple[float, str, str, str]] = []
        for name, service in self.shards.items():
            for timestamp, src, dst in service.breaker_transitions():
                merged.append((timestamp, name, src, dst))
        merged.sort(key=lambda item: (item[0], item[1]))
        return merged


def build_cluster(
    policy_factory: Callable[[], "Any"],
    shards: int = 4,
    config: Optional[ClusterConfig] = None,
    service_config: Optional["Any"] = None,
    clock: Optional[Clock] = None,
    registry: Optional[MetricsRegistry] = None,
    backend_factory: Optional[Callable[[str], "Any"]] = None,
    tracer: Optional["RequestTracer"] = None,
) -> CacheCluster:
    """Assemble a ready-to-serve cluster of homogeneous shards.

    Each shard gets its own policy instance (``policy_factory()``),
    its own backend, its own breaker, and per-shard metric labels --
    all on the one shared *clock*.  The backend is a
    :class:`~repro.service.backend.FaultInjectedBackend` running a
    fresh :class:`~repro.service.faults.BackendFaultPlan` (reachable
    as ``cluster.plans[name]`` for deterministic per-fault-domain
    injection) over an origin that serves
    :func:`~repro.service.backend.origin_value` and counts nothing, so
    a fetch is counted once, by the wrapper's ``calls(key)``.
    ``backend_factory(name)`` overrides the backend per shard when the
    defaults don't fit.
    """
    from repro.service.backend import (CallableBackend, FaultInjectedBackend,
                                       origin_value)
    from repro.service.faults import BackendFaultPlan
    from repro.service.service import ServiceConfig

    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    clock = clock or SystemClock()
    plans: Dict[str, BackendFaultPlan] = {}
    members: Dict[str, CacheService] = {}
    for index in range(shards):
        name = f"s{index}"
        if backend_factory is not None:
            backend = backend_factory(name)
        else:
            plan = BackendFaultPlan()
            plans[name] = plan
            backend = FaultInjectedBackend(CallableBackend(origin_value),
                                           plan, clock)
        members[name] = CacheService(
            policy_factory(),
            backend,
            service_config or ServiceConfig(),
            clock=clock,
            registry=registry,
            metric_labels={"shard": name},
            tracer=tracer,
        )
    cluster = CacheCluster(members, config=config, clock=clock,
                           registry=registry, tracer=tracer)
    cluster.plans = plans
    return cluster


__all__ = [
    "CLUSTER_OUTCOMES",
    "REPLICA_HIT",
    "CacheCluster",
    "ClusterConfig",
    "ClusterGetResult",
    "ClusterMetrics",
    "FrontCache",
    "HotKeyTracker",
    "RebalanceReport",
    "build_cluster",
]
