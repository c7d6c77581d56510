"""Spans recorded from outside the program, around calls into its layers.

:class:`SpanRecorder` replaces a method on one *instance* (a cluster, a
shard, a policy, a backend, a ring, a tier) with a wrapper that records
``(name, start, end, parent, tag)`` for every call.  Nothing in
``repro`` is edited: the program calls the instance attribute and so
calls the wrapper.  A span's parent is the innermost wrapped call still
open on the stack, so a policy call made inside a shard's ``get`` nests
under that ``get``.

Spans are kept in memory until :meth:`SpanRecorder.flush`, which folds
them into per-(name, tag) counts, total time and *self* time -- a
span's duration minus the durations of its direct children -- and keeps
the first :data:`EXPORT_LIMIT` of them for :meth:`write_chrome`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept for export; the aggregates always cover every span.
EXPORT_LIMIT = 20_000

SpanRow = Tuple[str, float, float, int, Any]


@dataclass
class SpanStats:
    """Aggregate of every span with one (name, tag)."""

    count: int = 0
    total: float = 0.0
    self_total: float = 0.0

    def mean_us(self) -> float:
        return 1e6 * self.total / self.count if self.count else 0.0

    def self_mean_us(self) -> float:
        return 1e6 * self.self_total / self.count if self.count else 0.0

    def add(self, other: "SpanStats") -> None:
        self.count += other.count
        self.total += other.total
        self.self_total += other.self_total


class SpanRecorder:
    """Record nested spans around wrapped instance methods."""

    def __init__(self) -> None:
        self._spans: List[Optional[SpanRow]] = []
        self._stack: List[int] = []
        self._stats: Dict[Tuple[str, Any], SpanStats] = {}
        self._exported: List[SpanRow] = []

    def wrap(self, obj: Any, method: str, name: str,
             tag: Optional[Callable[[Any], Any]] = None) -> None:
        """Record a span named *name* around every ``obj.method`` call.

        *tag*, given the call's result, labels the span (for example
        hit or miss for a policy request).
        """
        inner = getattr(obj, method)
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                stack.pop()
            end = clock()
            spans[index] = (name, start, end, parent,
                            tag(result) if tag is not None else None)
            return result

        setattr(obj, method, traced)

    def flush(self) -> None:
        """Fold the recorded spans into the aggregates and drop them.

        Call only between top-level calls: a span still open would lose
        its parent.
        """
        spans = self._spans
        children = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                children[span[3]] += span[2] - span[1]
        for index, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, _, tag = span
            entry = self._stats.get((name, tag))
            if entry is None:
                entry = self._stats[(name, tag)] = SpanStats()
            entry.count += 1
            entry.total += end - start
            entry.self_total += end - start - children[index]
        room = EXPORT_LIMIT - len(self._exported)
        if room > 0:
            self._exported.extend(s for s in spans[:room] if s is not None)
        spans.clear()

    def stats(self, name: str, tag: Any = ...) -> SpanStats:
        """Aggregate of *name* spans: one *tag*, or every tag."""
        self.flush()
        merged = SpanStats()
        for (span_name, span_tag), entry in self._stats.items():
            if span_name == name and (tag is ... or span_tag == tag):
                merged.add(entry)
        return merged

    def write_chrome(self, path: Path) -> None:
        """Write the exported spans as Chrome trace-event JSON."""
        self.flush()
        origin = min((s[1] for s in self._exported), default=0.0)
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 0,
                   "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6,
                   "args": {} if tag is None else {"tag": tag}}
                  for name, start, end, _, tag in self._exported]
        path.write_text(json.dumps({"traceEvents": events}))

