"""Shared simulation options: the consolidated knob set for the sim layer.

:func:`~repro.sim.simulator.simulate` and
:func:`~repro.sim.runner.run_sweep` historically grew overlapping
keyword arguments (``warmup``, ``listeners``, ``fast``,
``min_capacity``).  :class:`SimOptions` consolidates them into one
frozen dataclass that both entry points accept as their ``options``
parameter, the only way to pass them.

``fast=None`` means "use the subsystem default": ``simulate`` defaults
to the reference loop (``False``), ``run_sweep`` to the vectorized
engines (``True``).  ``metrics`` optionally supplies a
:class:`~repro.obs.metrics.MetricsRegistry` that the sim layer records
summary counters and timings into (see docs/observability.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.base import CacheListener
from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import RequestTracer
from repro.obs.timeseries import TimeSeriesRecorder


@dataclass(frozen=True)
class SimOptions:
    """Options shared by ``simulate`` and ``run_sweep``.

    Parameters
    ----------
    warmup:
        Requests replayed before statistics collection starts
        (``simulate`` only; ``run_sweep`` rejects a nonzero value).
    fast:
        ``True``/``False`` forces the vectorized or reference path;
        ``None`` keeps the entry point's default (``simulate``: ``False``,
        ``run_sweep``: ``True``).
    listeners:
        :class:`~repro.core.base.CacheListener` instances attached for
        the duration of the run (``simulate`` only).  Attaching a
        listener forces the reference path.
    min_capacity:
        Cache-size floor when sizes are derived from a fraction of a
        trace's unique objects (``run_sweep`` only).
    metrics:
        Optional registry receiving simulation counters and timings.
    timeseries:
        Optional :class:`~repro.obs.timeseries.TimeSeriesRecorder`
        receiving windowed per-request curves: the reference loop ticks
        it per request, the fast path derives windows from the engine's
        hit mask post-hoc, and ``run_sweep`` journals the rows.
    tracer:
        Optional :class:`~repro.obs.reqtrace.RequestTracer`, usually a
        :class:`~repro.obs.span.SpanTracer`; ``run_sweep`` records each
        sweep into it as one sweep→cell→attempt trace and writes
        ``trace.json`` (Chrome trace-event JSON) next to the journal
        when checkpointing.
    """

    warmup: int = 0
    fast: Optional[bool] = None
    listeners: Tuple[CacheListener, ...] = ()
    min_capacity: int = 10
    metrics: Optional[MetricsRegistry] = field(default=None, compare=False)
    timeseries: Optional[TimeSeriesRecorder] = field(default=None,
                                                    compare=False)
    tracer: Optional[RequestTracer] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.min_capacity < 1:
            raise ValueError(
                f"min_capacity must be >= 1, got {self.min_capacity}")
        # Accept any iterable of listeners, store an immutable tuple.
        object.__setattr__(self, "listeners", tuple(self.listeners))

    def resolved_fast(self, default: bool) -> bool:
        """The effective ``fast`` flag given the entry point's *default*."""
        return default if self.fast is None else self.fast


def resolve_options(options: Optional[SimOptions]) -> SimOptions:
    """*options*, or the defaults for ``None``; anything else raises."""
    if options is None:
        return SimOptions()
    if not isinstance(options, SimOptions):
        raise TypeError(
            f"options must be a SimOptions, got {type(options).__name__}")
    return options


__all__ = ["SimOptions", "resolve_options"]
