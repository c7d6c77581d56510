"""The sweep's tracer: a request tracer that samples and keeps every trace.

A sweep is a tree of work: the sweep contains cells (one per
(trace, policy, size)), each cell contains attempts (retries under the
fault-tolerant executor).  Aggregate counters cannot show *where* the
wall time of a degraded run went -- a cell that retried three times
looks identical to three fast cells.  ``run_sweep`` therefore records
each sweep as one trace of the one span store,
:class:`~repro.obs.reqtrace.RequestTracer`: a ``sweep`` root whose
``cell`` children hold their ``attempt`` spans.  :class:`SpanTracer`
is the setup that keeps every such trace, so the checkpointed
``runs/<run-id>/trace.json`` opens in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_ with sweep→cell→attempt nesting
intact, and :meth:`~repro.obs.reqtrace.RequestTracer.spans` lists the
spans of every sweep the tracer saw.
"""

from __future__ import annotations

import sys
from typing import Any

from repro.obs.reqtrace import RequestTracer, TailRules


class SpanTracer(RequestTracer):
    """A :class:`RequestTracer` for sweeps: every root sampled and kept.

    It has no registry, so it adds no ``reqtrace_*`` series; a sweep's
    own counter deltas ride its root span as ``metric_deltas``, taken
    from ``SimOptions.metrics``.  *clock* is any object with a
    ``now() -> float`` (wall time by default).
    """

    def __init__(self, clock: Any = None) -> None:
        super().__init__(sample=1.0, clock=clock, max_traces=sys.maxsize,
                         tail=TailRules(keep_fraction=1.0))


__all__ = ["SpanTracer"]
