"""repro.obs -- the unified telemetry subsystem.

One observability layer for all three runtime surfaces of this repo,
replacing the ad-hoc prints, per-subsystem dataclasses and one-off JSON
artifacts that accumulated as the repo grew:

* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` with thread-safe
  counters, gauges, and fixed-bucket histograms (the zero-dependency
  core; modelled on libCacheSim/Cachelib stats pipelines).
* :mod:`repro.obs.tracer` -- :class:`CacheTracer`, a
  :class:`~repro.core.base.CacheListener` recording admit / evict /
  promote / ghost-hit event streams in bounded ring buffers and feeding
  eviction-age histograms (the paper's Fig. 2e/3 lens).
* :mod:`repro.obs.export` -- JSON-lines snapshots, the Prometheus text
  format, and the human table behind ``repro metrics``.
* :mod:`repro.obs.timeseries` -- :class:`TimeSeriesRecorder`, windowed
  curves (miss ratio, eviction age, promotion rate, ...) sampled on a
  virtual-time cadence with bounded memory; behind ``repro
  timeseries``.
* :mod:`repro.obs.reqtrace` -- :class:`RequestTracer`, the one span
  store: per-request distributed tracing with seeded head sampling plus
  tail-based keep rules (errors, drops, breaker-opens, slow requests),
  a propagated :class:`TraceContext` joining service / cluster /
  hierarchy / open-loop spans into one tree, histogram exemplars
  linking ``repro metrics`` buckets to ``repro trace show``, and
  Chrome trace-event JSON for ``chrome://tracing``/Perfetto.
* :mod:`repro.obs.span` -- :class:`SpanTracer`, the request tracer set
  up for sweeps: a sweep is one sweep→cell→attempt trace, sampled at 1
  and always kept.
* :mod:`repro.obs.diff` -- :func:`diff_runs`, cross-run regression
  diffing of journal snapshots and time series; behind ``repro diff``.

Instrumentation is **opt-in** everywhere: pass a
:class:`MetricsRegistry` to :class:`~repro.service.CacheService`, to
:func:`~repro.sim.runner.run_sweep` (via
:class:`~repro.sim.SimOptions`), or attach a :class:`CacheTracer`
listener to a policy.  Uninstrumented runs pay nothing -- enforced
within 5 % on the fast-path benchmark by
``benchmarks/check_obs_overhead.py``.
"""

from repro.obs.diff import (
    DEFAULT_IGNORES,
    DiffReport,
    DiffRow,
    DiffThresholds,
    diff_runs,
    diff_states,
    load_run,
)
from repro.obs.export import (
    parse_prometheus_values,
    read_jsonl,
    render_metrics_table,
    to_jsonl,
    to_prometheus,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_AGE_BUCKETS,
    DEFAULT_DURATION_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    merge_snapshots,
)
from repro.obs.reqtrace import (
    CHROME_TRACE_SCHEMA,
    NOT_SAMPLED,
    ActiveSpan,
    RequestTracer,
    TailRules,
    TraceContext,
    chrome_from_rows,
    read_trace_jsonl,
    render_trace_list,
    render_trace_tree,
    validate_chrome_trace,
    validate_json,
)
from repro.obs.span import SpanTracer
from repro.obs.timeseries import (
    TimeSeriesRecorder,
    read_timeseries_jsonl,
    render_csv,
    render_sparklines,
    series_from_rows,
    series_key,
    sparkline,
)
from repro.obs.tracer import (
    ADMIT,
    EVICT,
    EVENT_KINDS,
    GHOST_HIT,
    PROMOTE,
    CacheEvent,
    CacheTracer,
)

__all__ = [
    "ADMIT",
    "CHROME_TRACE_SCHEMA",
    "DEFAULT_AGE_BUCKETS",
    "DEFAULT_DURATION_BUCKETS",
    "DEFAULT_IGNORES",
    "DEFAULT_LATENCY_BUCKETS",
    "EVICT",
    "EVENT_KINDS",
    "GHOST_HIT",
    "NOT_SAMPLED",
    "PROMOTE",
    "ActiveSpan",
    "CacheEvent",
    "CacheTracer",
    "Counter",
    "DiffReport",
    "DiffRow",
    "DiffThresholds",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RequestTracer",
    "SpanTracer",
    "TailRules",
    "TimeSeriesRecorder",
    "TraceContext",
    "chrome_from_rows",
    "diff_runs",
    "diff_states",
    "exponential_buckets",
    "load_run",
    "merge_snapshots",
    "parse_prometheus_values",
    "read_jsonl",
    "read_timeseries_jsonl",
    "read_trace_jsonl",
    "render_csv",
    "render_metrics_table",
    "render_sparklines",
    "render_trace_list",
    "render_trace_tree",
    "series_from_rows",
    "series_key",
    "sparkline",
    "to_jsonl",
    "to_prometheus",
    "validate_chrome_trace",
    "validate_json",
    "write_jsonl",
]
