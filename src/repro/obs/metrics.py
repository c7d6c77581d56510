"""Zero-dependency metrics primitives: counters, gauges, histograms.

The paper's argument is operational -- promotions per request, lock-free
throughput, availability under load -- so the repo needs one consistent
way to *count* those things across its three runtime layers (simulator,
sweep executor, cache service) instead of the per-subsystem dataclasses
and ad-hoc prints that grew with them.  :class:`MetricsRegistry` is that
single place, modelled on the stats pipelines of libCacheSim and
Cachelib but kept dependency-free and small:

* :class:`Counter` -- monotonically increasing count.
* :class:`Gauge` -- a value that goes up and down (breaker state,
  in-flight fetches).
* :class:`Histogram` -- fixed upper-bound buckets, cumulative on
  export (Prometheus semantics), for latencies, cell durations and
  eviction ages.

All metric types are thread-safe; instrumented hot paths pay one lock
acquisition plus one dict/bucket update per observation, and every
subsystem keeps instrumentation **opt-in** so uninstrumented runs pay
nothing (``benchmarks/check_obs_overhead.py`` enforces <5 % on the
fast-path benchmark).  Series registered together
(:meth:`MetricsRegistry.register`) share one lock, so a caller holding
it -- the serving layers' request ledger -- updates all of them in one
critical section through the ``*_held`` methods.

Identity is ``(name, sorted label pairs)``: asking the registry for the
same name+labels returns the same metric object, asking for the same
name with a different *type* raises.  :meth:`MetricsRegistry.snapshot`
returns plain dict rows -- the one wire format all exporters
(:mod:`repro.obs.export`), the journal, and the CLI table consume.
"""

from __future__ import annotations

import math
import random
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

LabelPairs = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds): 1ms .. ~16s, doubling.
DEFAULT_LATENCY_BUCKETS = tuple(0.001 * 2 ** i for i in range(15))

#: Default duration buckets (seconds) for sweep cells: 10ms .. ~82s.
DEFAULT_DURATION_BUCKETS = tuple(0.01 * 2 ** i for i in range(14))

#: Default age buckets (requests) for eviction-age histograms.
DEFAULT_AGE_BUCKETS = tuple(int(10 * 4 ** i) for i in range(10))


def exponential_buckets(start: float, factor: float,
                        count: int) -> Tuple[float, ...]:
    """``count`` bucket upper bounds growing geometrically from *start*."""
    if start <= 0:
        raise ValueError(f"start must be > 0, got {start}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor ** i for i in range(count))


def label_pairs(labels: Dict[str, str]) -> LabelPairs:
    """A metric identity's labels: sorted ``(name, value)`` string pairs."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _check_name(name: str) -> None:
    if not name or not name.replace("_", "a").isidentifier():
        raise ValueError(
            f"metric name must be a valid identifier, got {name!r}")


class _Metric:
    """Shared identity + locking for all metric types.

    *lock* guards the metric's state; metrics built with one lock form
    a group that a holder of that lock updates together.
    """

    kind = "abstract"

    def __init__(self, name: str, labels: LabelPairs, help: str = "",
                 lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = lock if lock is not None else threading.Lock()

    @property
    def lock(self) -> threading.Lock:
        """The lock guarding this metric's state."""
        return self._lock

    @property
    def label_dict(self) -> Dict[str, str]:
        """The metric's labels as a plain dict."""
        return dict(self.labels)

    def row(self) -> dict:
        """This metric as one snapshot row (see MetricsRegistry.snapshot)."""
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs, help: str = "",
                 lock: Optional[threading.Lock] = None) -> None:
        super().__init__(name, labels, help, lock)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    def inc_held(self, amount: int = 1) -> None:
        """:meth:`inc` for a caller already holding :attr:`lock`."""
        self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def value_held(self) -> int:
        """:attr:`value` for a caller already holding :attr:`lock`."""
        return self._value

    def row(self) -> dict:
        return {"type": self.kind, "name": self.name,
                "labels": self.label_dict, "value": self.value}


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelPairs, help: str = "") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to *value*."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract *amount* from the gauge."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def row(self) -> dict:
        return {"type": self.kind, "name": self.name,
                "labels": self.label_dict, "value": self.value}


class Histogram(_Metric):
    """Fixed-bucket histogram with Prometheus cumulative-export semantics.

    ``buckets`` are finite upper bounds, ascending; an implicit ``+Inf``
    bucket catches the rest.  Internally counts are per-bucket
    (non-cumulative); :meth:`row` exports them cumulatively, which is
    what both the Prometheus text format and the quantile estimator
    expect.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelPairs, help: str = "",
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 lock: Optional[threading.Lock] = None) -> None:
        super().__init__(name, labels, help, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"bucket bounds must be strictly ascending, got {bounds}")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        # bucket index -> (exemplar trace id, observed value); first
        # observation to land in a bucket wins, so a deterministic run
        # always exports the same exemplar set.
        self._exemplars: Dict[int, Tuple[str, float]] = {}

    def observe(self, value: float, exemplar: Optional[str] = None) -> bool:
        """Record one observation.

        ``exemplar`` optionally offers a trace id for the bucket the
        value lands in; it is stored only if that bucket has none yet.
        Returns True when the exemplar was taken -- callers use this to
        pin the corresponding trace in the request tracer's buffer.
        """
        with self._lock:
            return self.observe_held(value, exemplar)

    def observe_held(self, value: float,
                     exemplar: Optional[str] = None) -> bool:
        """:meth:`observe` for a caller already holding :attr:`lock`."""
        # The first bound >= value; len(bounds) is the +Inf bucket.
        index = bisect_left(self.bounds, value)
        self._counts[index] += 1
        self._sum += value
        self._count += 1
        if exemplar is not None and index not in self._exemplars:
            self._exemplars[index] = (str(exemplar), value)
            return True
        return False

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper-bound, cumulative-count) pairs, ending with +Inf."""
        with self._lock:
            counts = list(self._counts)
        total = 0
        out: List[Tuple[float, int]] = []
        for bound, count in zip(self.bounds, counts):
            total += count
            out.append((bound, total))
        out.append((float("inf"), total + counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimated *q*-quantile (upper bound of the covering bucket).

        Coarse by construction -- fixed buckets -- but monotone and
        cheap; the service layer keeps raw latency lists where exact
        percentiles matter.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        cumulative = self.cumulative()
        total = cumulative[-1][1]
        if total == 0:
            return 0.0
        rank = q * total
        for bound, running in cumulative:
            if running >= rank:
                # Clamp the overflow bucket to the largest finite bound
                # so callers get a usable number, not +Inf.
                return bound if bound != float("inf") else self.bounds[-1]
        return self.bounds[-1]  # pragma: no cover - defensive

    def row(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            total_sum = self._sum
            total_count = self._count
            exemplars = dict(self._exemplars)
        cumulative = []
        running = 0
        for count in counts[:-1]:
            running += count
            cumulative.append(running)
        row = {"type": self.kind, "name": self.name,
               "labels": self.label_dict,
               "buckets": [list(pair) for pair in
                           zip(self.bounds, cumulative)],
               "sum": total_sum, "count": total_count}
        if exemplars:
            # Bounds as JSON-safe values: the overflow bucket's +Inf
            # becomes the string "+Inf" (strict JSON has no Infinity).
            row["exemplars"] = [
                [self.bounds[i] if i < len(self.bounds) else "+Inf",
                 trace_id, value]
                for i, (trace_id, value) in sorted(exemplars.items())]
        return row


class MetricsRegistry:
    """Get-or-create home for every metric of one run/process.

    The registry hands out metric objects keyed by (name, labels); the
    same request always returns the same object, so instrumentation
    sites can call ``registry.counter(...)`` once at setup and hold the
    reference on the hot path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelPairs], _Metric] = {}

    def _get_or_create(self, cls, name: str, labels: Dict[str, str],
                       help: str, **kwargs) -> _Metric:
        _check_name(name)
        pairs = label_pairs(labels)
        with self._lock:
            existing = self._metrics.get((name, pairs))
        if existing is not None:
            self._check_kind(name, existing, cls.kind)
            return existing
        return self.register(cls(name, pairs, help=help, **kwargs))[0]

    @staticmethod
    def _check_kind(name: str, metric: _Metric, kind: str) -> None:
        if metric.kind != kind:
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}, not {kind}")

    def register(self, *metrics: _Metric) -> List[_Metric]:
        """Add *metrics* as one group, sharing one lock; returns the
        registered series, in order.

        A series whose (name, labels) is already registered is returned
        in place of the one given, so a second group with the same
        identities -- two request ledgers of one layer and labels --
        adds into the first one's series.  The group then takes the lock
        those series already have, atomically, so every series a caller
        updates under the group's lock is guarded by it.  Raises
        ``ValueError`` if the registered series have different locks,
        and ``TypeError`` if a name is registered as another type.
        """
        for metric in metrics:
            _check_name(metric.name)
        keys = [(metric.name, metric.labels) for metric in metrics]
        with self._lock:
            locks = {id(held.lock): held.lock for held in
                     map(self._metrics.get, keys) if held is not None}
            if len(locks) > 1:
                raise ValueError(
                    "metrics registered as one group are already guarded "
                    "by different locks")
            lock = next(iter(locks.values()), None)
            out: List[_Metric] = []
            for key, metric in zip(keys, metrics):
                existing = self._metrics.get(key)
                # A name keeps one type across all label sets.
                same_name = existing or next(
                    (other for (name, _), other in self._metrics.items()
                     if name == metric.name), None)
                if same_name is not None:
                    self._check_kind(metric.name, same_name, metric.kind)
                if existing is None:
                    if lock is None:
                        lock = metric.lock
                    metric._lock = lock
                    self._metrics[key] = existing = metric
                out.append(existing)
            return out

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """Get or create the counter ``name{labels}``."""
        return self._get_or_create(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  **labels) -> Histogram:
        """Get or create the histogram ``name{labels}``."""
        return self._get_or_create(Histogram, name, labels, help,
                                   buckets=buckets)

    def collect(self) -> List[_Metric]:
        """All registered metrics, sorted by (name, labels)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted(metrics, key=lambda m: (m.name, m.labels))

    def snapshot(self) -> List[dict]:
        """A consistent list of plain-dict rows for every metric.

        This is the single wire format shared by the JSONL exporter,
        the Prometheus exporter, the journal's ``metrics`` line and the
        ``repro metrics`` table -- so their counter values can never
        disagree.
        """
        return [metric.row() for metric in self.collect()]

    def counter_values(self) -> Dict[str, int]:
        """``name{label=value,...} -> value`` for every counter (tests)."""
        out: Dict[str, int] = {}
        for metric in self.collect():
            if metric.kind == "counter":
                label_text = ",".join(f"{k}={v}" for k, v in metric.labels)
                key = f"{metric.name}{{{label_text}}}" if label_text \
                    else metric.name
                out[key] = metric.value
        return out


class Reservoir:
    """Fixed-size uniform sample of a value stream (Vitter Algorithm R).

    Exact percentiles need the raw samples, but storing one float per
    request makes a million-request open-loop run grow memory linearly.
    A reservoir keeps a uniformly random, fixed-size subset: after *n*
    observations every value had probability ``size/n`` of surviving,
    so sample percentiles converge on stream percentiles while memory
    stays O(size).  Seeded, hence deterministic per instance.

    Not internally locked -- its caller, the serving layers'
    :class:`~repro.service.service.OutcomeLedger`, already serialises
    observations under its own lock, and the extra acquisition per
    request would be pure overhead.
    """

    def __init__(self, size: int = 4096, seed: int = 0) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = size
        self.count = 0           # total observations offered
        self._getrandbits = random.Random(seed).getrandbits
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._values)

    def add(self, value: float) -> bool:
        """Offer one observation; True when the sample stored it."""
        self.count += 1
        count = self.count
        if count <= self.size:
            self._values.append(value)
            return True
        # randrange(count) minus its argument checks: the rejection loop
        # over getrandbits that CPython's randrange runs, so every draw,
        # and therefore every sample, is the one randrange would give.
        bits = count.bit_length()
        slot = self._getrandbits(bits)
        while slot >= count:
            slot = self._getrandbits(bits)
        if slot < self.size:
            self._values[slot] = value
            return True
        return False

    def values(self) -> List[float]:
        """A copy of the current sample (unordered)."""
        return list(self._values)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (0.0 for an empty input).

    Standard ceil-based nearest-rank: the p-th percentile of N sorted
    samples is the value at 1-indexed rank ``ceil(p * N)`` (and the
    minimum for p = 0).  A ``round()``-based rank would use banker's
    rounding, so ties at ``.5`` would resolve to the even rank: p50 of
    ``[1, 2]`` would be 1 but p50 of ``[1, 2, 3, 4]`` would be 3.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def merge_snapshots(snapshots: Iterable[List[dict]]) -> List[dict]:
    """Merge snapshot rows, summing counters/histograms by identity.

    Gauges take the *last* value seen.  Used when aggregating metrics
    across resumed sweep sessions journalled separately.
    """
    merged: Dict[Tuple, dict] = {}
    for rows in snapshots:
        for row in rows:
            key = (row["name"], tuple(sorted(row["labels"].items())))
            existing = merged.get(key)
            if existing is None:
                merged[key] = {**row, "labels": dict(row["labels"])}
                continue
            if existing["type"] != row["type"]:
                raise TypeError(
                    f"metric {row['name']!r} changed type across "
                    f"snapshots: {existing['type']} vs {row['type']}")
            if row["type"] == "counter":
                existing["value"] += row["value"]
            elif row["type"] == "gauge":
                existing["value"] = row["value"]
            else:  # histogram: cumulative bucket counts sum bucket-wise
                if [b for b, _ in existing["buckets"]] != \
                        [b for b, _ in row["buckets"]]:
                    raise ValueError(
                        f"histogram {row['name']!r} bucket bounds differ "
                        f"across snapshots")
                existing["buckets"] = [
                    [bound, have + got] for (bound, have), (_, got)
                    in zip(existing["buckets"], row["buckets"])]
                existing["sum"] += row["sum"]
                existing["count"] += row["count"]
    return sorted(merged.values(),
                  key=lambda r: (r["name"], sorted(r["labels"].items())))


__all__ = [
    "DEFAULT_AGE_BUCKETS",
    "DEFAULT_DURATION_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Reservoir",
    "exponential_buckets",
    "label_pairs",
    "merge_snapshots",
    "percentile",
]
