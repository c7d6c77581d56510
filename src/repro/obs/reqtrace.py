"""Per-request distributed tracing with tail sampling.

This is the one span store of :mod:`repro.obs`: it answers *what
happened to one request* and, with every root sampled and kept (the
:class:`~repro.obs.span.SpanTracer` setup), *where a sweep spent its
time* -- a sweep is one trace whose ``sweep`` root holds its ``cell``
and ``attempt`` spans.  A :class:`RequestTracer` hands out
:class:`ActiveSpan` handles at the edge of the request path (the
open-loop engine, a bare ``CacheService.get``, ``CacheCluster.get``,
``CacheHierarchy.request`` or ``run_sweep``) and a
:class:`TraceContext` -- trace id plus parent span id -- is propagated
through every layer underneath so child spans nest under the caller's
span no matter which component created the root.

Sampling is two-staged, the way production tracers do it:

* **Head sampling** -- a seeded coin flip at root-start decides whether
  the request is traced at all (``sample=0.01`` keeps tracing cheap at
  volume).  Requests that lose the flip cost one RNG call and nothing
  else; un-sampled contexts propagate as ``None`` so every layer's
  disabled path is a single ``is None`` check.
* **Tail keep rules** -- at root-end, :class:`TailRules` decide whether
  the finished trace is worth retaining: error/shed/dropped outcomes are
  always kept, spans marked mid-flight (breaker-open paths, histogram
  exemplars) are always kept, and latencies above a percentile of the
  traffic seen so far are kept.  Everything else is discarded, so the
  bounded buffer fills with the *interesting* requests.

All randomness comes from one ``random.Random(seed)`` and all
timestamps from the shared clock, so a run on a ``VirtualClock`` is
bit-reproducible and CI can diff the kept traces at zero tolerance.

Two exports: ``write_chrome_trace`` emits ``chrome://tracing`` /
Perfetto JSON with one lane per kept trace (validated against
:data:`CHROME_TRACE_SCHEMA` before writing), and ``write_jsonl`` emits
one self-contained JSON object per kept trace for the ``repro trace``
CLI.
"""
from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import Reservoir, percentile

PathLike = Union[str, Path]

#: Keep-reason vocabulary, in decision order.
KEEP_OUTCOME = "outcome"    # root outcome matched TailRules.keep_outcomes
KEEP_MARKED = "marked"      # a layer called span.mark() (breaker-open, ...)
KEEP_EXEMPLAR = "exemplar"  # trace id was taken as a histogram exemplar
KEEP_SLOW = "slow"          # latency above the tail percentile
KEEP_SAMPLED = "sampled"    # residual random keep (TailRules.keep_fraction)


@dataclass(frozen=True)
class TraceContext:
    """What crosses a layer boundary: which trace, and under which span."""

    trace_id: str
    span_id: int


#: Propagated instead of ``None`` when the head sampler already said no:
#: a downstream layer receiving this knows the sampling decision is made
#: and stays dark, instead of running its own head sample and starting a
#: fresh root (which would double the effective sample rate and mix
#: mid-stack roots into the kept buffer).
NOT_SAMPLED = TraceContext(trace_id="", span_id=0)


@dataclass(frozen=True)
class TailRules:
    """Which finished traces are worth keeping.

    * ``keep_outcomes`` -- root outcomes retained unconditionally.
    * ``latency_quantile`` -- keep roots slower than this quantile of
      the root latencies seen so far (seeded reservoir estimate).  The
      rule only engages after ``min_latency_samples`` roots so the
      first few requests don't all count as "slow".
    * ``keep_fraction`` -- residual probability of keeping an otherwise
      boring trace, so exports show healthy requests too.
    """

    keep_outcomes: Tuple[str, ...] = ("error", "dropped", "shed")
    latency_quantile: float = 0.95
    min_latency_samples: int = 32
    keep_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.latency_quantile <= 1.0:
            raise ValueError(f"latency_quantile must be in [0, 1], "
                             f"got {self.latency_quantile}")


@dataclass
class _Trace:
    """A trace being assembled (and, if kept, its final record)."""

    trace_id: str
    name: str
    root_id: int
    start: float
    spans: List["ActiveSpan"] = field(default_factory=list)
    marks: List[str] = field(default_factory=list)
    outcome: Optional[str] = None
    latency: float = 0.0
    keep: Optional[str] = None


class ActiveSpan:
    """Handle on one span of a sampled trace, and once ended its record.

    Usable as a context manager, but the request path mostly drives it
    by hand (``CacheService.get`` has half a dozen exits) -- create with
    :meth:`RequestTracer.start` or :meth:`child`, annotate with
    :meth:`note`, close with :meth:`end`.  Ending fills in ``stop`` and
    files the span with its trace; :meth:`RequestTracer.spans` lists
    the ended spans of the kept traces.
    """

    __slots__ = ("_tracer", "_trace", "span_id", "name",
                 "start", "stop", "parent_id", "args")

    def __init__(self, tracer: "RequestTracer", trace: _Trace,
                 span_id: int, name: str, start: float,
                 parent_id: Optional[int], args: Dict[str, Any]):
        self._tracer = tracer
        self._trace = trace
        self.span_id = span_id
        self.name = name
        self.start = start
        self.stop: Optional[float] = None
        self.parent_id = parent_id
        self.args = args

    # -- identity -----------------------------------------------------

    @property
    def trace_id(self) -> str:
        return self._trace.trace_id

    @property
    def ctx(self) -> TraceContext:
        """Context to hand to the next layer down."""
        return TraceContext(self._trace.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        """The ended span's length on the tracer's clock."""
        return self.stop - self.start

    # -- annotation ---------------------------------------------------

    def note(self, **kv: Any) -> None:
        """Attach key/value annotations to this span."""
        self.args.update(kv)

    def mark(self, reason: str) -> None:
        """Force the whole trace to be kept at tail time."""
        self._trace.marks.append(reason)

    # -- children -----------------------------------------------------

    def child(self, name: str, start: Optional[float] = None,
              **args: Any) -> "ActiveSpan":
        """Open a child span (now, unless ``start`` is given)."""
        return self._tracer._open(self._trace, name, start, self.span_id,
                                  args)

    def add_span(self, name: str, start: float, end: float,
                 **args: Any) -> int:
        """Record a finished child span with explicit timestamps.

        The open-loop engine uses this retroactively: queue-wait is only
        known at dispatch time, promotion lock time only at completion.
        """
        if end < start:
            raise ValueError(
                f"span {name!r} ends before it starts ({end} < {start})")
        span = ActiveSpan(self._tracer, self._trace,
                          next(self._tracer._ids), name, start,
                          self.span_id, dict(args))
        span.stop = end
        self._trace.spans.append(span)
        return span.span_id

    # -- closing ------------------------------------------------------

    def end(self, outcome: Optional[str] = None, at: Optional[float] = None,
            **args: Any) -> Optional[str]:
        """Close the span.

        For a root span this also runs the tail keep rules; the return
        value is the keep reason (``None`` when the trace was
        discarded).  Child spans always return ``None``.
        """
        if self.stop is not None:  # idempotent: multi-exit code paths
            return None            # may hit a shared cleanup twice
        if args:
            self.args.update(args)
        if outcome is not None:
            self.args["outcome"] = outcome
        return self._tracer._close(self, outcome, at)

    def __enter__(self) -> "ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and "error" not in self.args:
            self.args["error"] = repr(exc)
        self.end(outcome="error" if exc is not None else None)


class RequestTracer:
    """Seeded head sampling + tail keep over a bounded trace buffer.

    Parameters
    ----------
    sample:
        Head-sampling probability in ``[0, 1]``.
    seed:
        Seeds the single RNG used for the head coin flip, trace ids,
        the latency reservoir and the residual tail keep.
    clock:
        Anything with a ``now() -> float``; defaults to
        ``time.perf_counter``.  Timestamps are recorded on this clock
        and normalised to the tracer's epoch on export.
    max_traces:
        Bound on the kept-trace buffer (oldest kept trace evicted).
    tail:
        :class:`TailRules`; the default keeps errors/drops/sheds,
        marked traces and the slowest ~5%.
    registry:
        Optional :class:`repro.obs.MetricsRegistry`; when given the
        tracer exports ``reqtrace_requests_total``,
        ``reqtrace_sampled_total``, ``reqtrace_kept_total{reason=}``
        and ``reqtrace_discarded_total`` counters.
    """

    def __init__(self, sample: float = 1.0, seed: int = 0,
                 clock: Any = None, max_traces: int = 512,
                 tail: Optional[TailRules] = None,
                 registry: Any = None,
                 labels: Optional[Dict[str, str]] = None):
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        if max_traces < 1:
            raise ValueError("max_traces must be positive")
        if clock is not None:
            self._now = clock.now
        else:                                   # wall clock fallback
            from time import perf_counter
            self._now = perf_counter
        self.sample = sample
        self.tail = tail if tail is not None else TailRules()
        self._rng = Random(seed)
        self._ids = itertools.count(1)
        self._epoch = self._now()
        self._lock = threading.Lock()
        self._active: Dict[str, _Trace] = {}
        self.kept: deque = deque(maxlen=max_traces)
        # Traces referenced from histogram exemplars live outside the
        # ring: a `repro metrics` exemplar must stay resolvable via
        # `repro trace show` even after max_traces later keeps.  Bounded
        # by max_traces as well (and in practice by first-exemplar-per-
        # bucket, which caps it at buckets x histograms).
        self._pinned: Dict[str, _Trace] = {}
        # Seeded reservoir of root latencies backing the "slow" rule, and
        # that rule's threshold: recomputed only after the reservoir
        # stores a value, since nothing else changes its percentile.
        self._latencies = Reservoir(size=256, seed=seed + 1)
        self._slow_at: Optional[float] = None
        self._requests = 0
        self._sampled = 0
        self._discarded = 0
        self._labels = dict(labels or {})
        self._registry = registry
        if registry is not None:
            self._c_requests = registry.counter(
                "reqtrace_requests_total",
                "Requests seen by the request tracer", **self._labels)
            self._c_sampled = registry.counter(
                "reqtrace_sampled_total",
                "Requests head-sampled into a trace", **self._labels)
            self._c_discarded = registry.counter(
                "reqtrace_discarded_total",
                "Sampled traces discarded by the tail rules", **self._labels)

    # -- time ---------------------------------------------------------

    def now(self) -> float:
        return self._now()

    # -- span lifecycle ----------------------------------------------

    def start(self, name: str, ctx: Optional[TraceContext] = None,
              start: Optional[float] = None,
              **args: Any) -> Optional[ActiveSpan]:
        """Open a span; returns ``None`` when the request isn't traced.

        Without ``ctx`` this is a *root* start and runs the head
        sampler.  With ``ctx`` it joins the caller's trace -- or stays
        dark if that trace was never sampled (or already finished).
        :data:`NOT_SAMPLED` stays dark without taking the tracer's lock.
        """
        if ctx is NOT_SAMPLED:
            return None
        with self._lock:
            if ctx is not None:
                trace = self._active.get(ctx.trace_id)
                if trace is None:
                    return None
                return self._open(trace, name, start, ctx.span_id, args)
            self._requests += 1
            if self._registry is not None:
                self._c_requests.inc()
            if self._rng.random() >= self.sample:
                return None
            self._sampled += 1
            if self._registry is not None:
                self._c_sampled.inc()
            trace_id = f"{self._rng.getrandbits(48):012x}"
            at = self._now() if start is None else start
            root_id = next(self._ids)
            trace = _Trace(trace_id=trace_id, name=name,
                           root_id=root_id, start=at)
            self._active[trace_id] = trace
            return ActiveSpan(self, trace, root_id, name, at, None,
                              dict(args))

    def _open(self, trace: _Trace, name: str, start: Optional[float],
              parent_id: int, args: Dict[str, Any]) -> ActiveSpan:
        at = self._now() if start is None else start
        return ActiveSpan(self, trace, next(self._ids), name, at,
                          parent_id, dict(args))

    def _close(self, span: ActiveSpan, outcome: Optional[str],
               at: Optional[float]) -> Optional[str]:
        end = self._now() if at is None else at
        span.stop = max(end, span.start)
        with self._lock:
            trace = span._trace
            trace.spans.append(span)
            if span.span_id != trace.root_id:
                return None
            # Root closed: run the tail rules and retire the trace.
            self._active.pop(trace.trace_id, None)
            trace.outcome = outcome
            trace.latency = span.stop - trace.start
            trace.keep = self._tail_keep(trace)
            if self._latencies.add(trace.latency):
                self._slow_at = None
            if trace.keep is None:
                # Its spans point back at the trace: dropping them lets
                # reference counting free the discarded trace at once.
                trace.spans.clear()
                self._discarded += 1
                if self._registry is not None:
                    self._c_discarded.inc()
                return None
            if self._registry is not None:
                self._registry.counter(
                    "reqtrace_kept_total", "Traces kept by the tail rules",
                    reason=trace.keep, **self._labels).inc()
            if KEEP_EXEMPLAR in trace.marks \
                    and len(self._pinned) < (self.kept.maxlen or 0):
                self._pinned[trace.trace_id] = trace
            else:
                self.kept.append(trace)
            return trace.keep

    def _tail_keep(self, trace: _Trace) -> Optional[str]:
        rules = self.tail
        if trace.outcome in rules.keep_outcomes:
            return KEEP_OUTCOME
        if trace.marks:
            return KEEP_EXEMPLAR if KEEP_EXEMPLAR in trace.marks \
                else KEEP_MARKED
        if self._latencies.count >= rules.min_latency_samples:
            if self._slow_at is None:
                self._slow_at = percentile(self._latencies.values(),
                                           rules.latency_quantile)
            if trace.latency >= self._slow_at:
                return KEEP_SLOW
        if rules.keep_fraction > 0.0 \
                and self._rng.random() < rules.keep_fraction:
            return KEEP_SAMPLED
        return None

    # -- introspection ------------------------------------------------

    def _retained(self) -> List[_Trace]:
        """Kept and exemplar-pinned traces in start order."""
        with self._lock:
            retained = list(self._pinned.values()) + list(self.kept)
        return sorted(retained, key=lambda t: t.start)

    def summary(self) -> dict:
        with self._lock:
            retained = list(self._pinned.values()) + list(self.kept)
            reasons: Dict[str, int] = {}
            for trace in retained:
                reasons[trace.keep] = reasons.get(trace.keep, 0) + 1
            return {"requests": self._requests, "sampled": self._sampled,
                    "kept": len(retained), "discarded": self._discarded,
                    "open": len(self._active), "by_reason": reasons}

    def spans(self, cat: Optional[str] = None) -> List[ActiveSpan]:
        """The kept traces' ended spans in start order.

        *cat* keeps one kind of span; a span's category is its name
        (``sweep``, ``cell``, ``attempt``, ``service.get``, ...).
        """
        spans = [span for trace in self._retained() for span in trace.spans
                 if cat is None or span.name == cat]
        return sorted(spans, key=lambda s: (s.start, s.span_id))

    # -- export -------------------------------------------------------

    def _rows(self) -> List[dict]:
        """Kept traces as plain JSON rows, epoch-relative timestamps."""
        return [{
            "type": "reqtrace",
            "trace_id": trace.trace_id,
            "name": trace.name,
            "outcome": trace.outcome,
            "latency": round(trace.latency, 9),
            "keep": trace.keep,
            "spans": [{
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "name": s.name,
                "start": round(s.start - self._epoch, 9),
                "end": round(s.stop - self._epoch, 9),
                "args": s.args,
            } for s in sorted(trace.spans,
                              key=lambda s: (s.start, s.span_id))],
        } for trace in self._retained()]

    def to_jsonl(self) -> str:
        return "".join(json.dumps(row, sort_keys=True) + "\n"
                       for row in self._rows())

    def write_jsonl(self, path: PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path

    def to_chrome(self) -> dict:
        return chrome_from_rows(self._rows())

    def write_chrome_trace(self, path: PathLike) -> Path:
        doc = self.to_chrome()
        validate_chrome_trace(doc)    # raises ValueError on a bad doc
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return path


# ---------------------------------------------------------------------
# File-level helpers (shared by the tracer and the ``repro trace`` CLI)
# ---------------------------------------------------------------------

def read_trace_jsonl(path: PathLike) -> List[dict]:
    """Load kept-trace rows, skipping torn/foreign lines."""
    rows: List[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict) and row.get("type") == "reqtrace" \
                    and "trace_id" in row and "spans" in row:
                rows.append(row)
    return rows


def chrome_from_rows(rows: Sequence[dict]) -> dict:
    """Kept-trace rows -> chrome://tracing document (one lane per trace)."""
    events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0, "ts": 0,
        "args": {"name": "repro reqtrace"}}]
    for lane, row in enumerate(rows):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": lane, "ts": 0,
            "args": {"name": f"trace {row['trace_id']}"
                             f" [{row.get('outcome')}]"}})
        for span in row["spans"]:
            args = {"trace_id": row["trace_id"],
                    "span_id": span["span_id"], **span["args"]}
            if span.get("parent_id") is not None:
                args["parent_id"] = span["parent_id"]
            events.append({
                "name": span["name"], "cat": "reqtrace", "ph": "X",
                "ts": round(max(span["start"], 0.0) * 1e6, 3),
                "dur": round((span["end"] - span["start"]) * 1e6, 3),
                "pid": 1, "tid": lane, "args": args})
    events.sort(key=lambda e: (e["ts"], e["tid"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------
# Chrome trace-event JSON schema + dependency-free validator
# ---------------------------------------------------------------------

#: JSON Schema (draft-ish subset) for the trace-event export.  Kept
#: declarative so the tests and the CI artifact gate both validate the
#: real contract Perfetto expects: a top-level ``traceEvents`` array of
#: events whose ``ph`` is ``X`` (complete, with ``ts``/``dur``) or
#: ``M`` (metadata).
CHROME_TRACE_SCHEMA = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "pid", "tid", "ts"],
                "properties": {
                    "name": {"type": "string"},
                    "cat": {"type": "string"},
                    "ph": {"type": "string", "enum": ["X", "M", "B", "E"]},
                    "ts": {"type": "number", "minimum": 0},
                    "dur": {"type": "number", "minimum": 0},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "args": {"type": "object"},
                },
            },
        },
        "displayTimeUnit": {"type": "string", "enum": ["ms", "ns"]},
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


def validate_json(instance, schema: dict, path: str = "$") -> None:
    """Validate *instance* against a JSON-Schema subset; raise ValueError.

    Supports the keywords :data:`CHROME_TRACE_SCHEMA` uses -- ``type``,
    ``required``, ``properties``, ``items``, ``enum``, ``minimum`` --
    which keeps the repo dependency-free while the schema stays a plain
    JSON document any external validator accepts too.
    """
    expected = schema.get("type")
    if expected is not None and not _TYPE_CHECKS[expected](instance):
        raise ValueError(f"{path}: expected {expected}, "
                         f"got {type(instance).__name__}")
    if "enum" in schema and instance not in schema["enum"]:
        raise ValueError(f"{path}: {instance!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool) \
            and instance < schema["minimum"]:
        raise ValueError(f"{path}: {instance} < minimum "
                         f"{schema['minimum']}")
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                raise ValueError(f"{path}: missing required key {name!r}")
        for name, subschema in schema.get("properties", {}).items():
            if name in instance:
                validate_json(instance[name], subschema,
                              f"{path}.{name}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            validate_json(item, schema["items"], f"{path}[{i}]")


def validate_chrome_trace(trace: dict) -> None:
    """Check *trace* against :data:`CHROME_TRACE_SCHEMA` (+ X-needs-dur)."""
    validate_json(trace, CHROME_TRACE_SCHEMA)
    for i, event in enumerate(trace["traceEvents"]):
        if event["ph"] == "X" and "dur" not in event:
            raise ValueError(
                f"$.traceEvents[{i}]: complete ('X') event needs 'dur'")


def render_trace_list(rows: Sequence[dict], slowest: Optional[int] = None,
                      outcome: Optional[str] = None) -> str:
    """Table of kept traces, optionally filtered/sorted for the CLI."""
    picked = [r for r in rows
              if outcome is None or r.get("outcome") == outcome]
    if slowest is not None:
        picked = sorted(picked, key=lambda r: -float(r.get("latency", 0.0)))
        picked = picked[:slowest]
    if not picked:
        return "(no kept traces)"
    lines = [f"{'trace':<14} {'root':<16} {'outcome':<9} "
             f"{'latency':>10} {'keep':<9} spans"]
    for row in picked:
        lines.append(
            f"{row['trace_id']:<14} {row.get('name', ''):<16} "
            f"{str(row.get('outcome')):<9} "
            f"{float(row.get('latency', 0.0)):>9.6f}s "
            f"{str(row.get('keep')):<9} {len(row['spans'])}")
    return "\n".join(lines)


def render_trace_tree(row: dict) -> str:
    """One kept trace as an indented span tree."""
    spans = row["spans"]
    children: Dict[Optional[int], List[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    for kids in children.values():
        kids.sort(key=lambda s: (s["start"], s["span_id"]))
    lines = [f"trace {row['trace_id']}  root={row.get('name')}  "
             f"outcome={row.get('outcome')}  "
             f"latency={float(row.get('latency', 0.0)):.6f}s  "
             f"keep={row.get('keep')}"]

    def walk(parent: Optional[int], depth: int) -> None:
        for span in children.get(parent, []):
            args = " ".join(f"{k}={v}" for k, v in
                            sorted(span.get("args", {}).items()))
            dur = span["end"] - span["start"]
            lines.append(f"{'  ' * depth}- {span['name']} "
                         f"[{span['start']:.6f}s +{dur:.6f}s]"
                         + (f"  {args}" if args else ""))
            walk(span["span_id"], depth + 1)

    walk(None, 1)
    return "\n".join(lines)
