"""Trace-driven cache simulation.

The simulator replays a request sequence through an
:class:`~repro.core.base.EvictionPolicy` and reports hit/miss counts.
Offline policies (Belady) are transparently supplied with the full
trace via :meth:`~repro.core.base.OfflinePolicy.prepare` before replay.

``SimOptions(fast=True)`` routes the replay through the vectorized
engine in :mod:`repro.sim.fast` when the policy has one (bit-identical hit/miss
sequences, order-of-magnitude faster) and falls back to the reference
request loop otherwise -- offline policies, attached listeners, or a
policy with prior state always take the reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.base import EvictionPolicy, OfflinePolicy
from repro.sim.options import SimOptions, resolve_options
from repro.traces.trace import Trace


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulation run."""

    policy: str
    requests: int
    hits: int
    misses: int

    @property
    def miss_ratio(self) -> float:
        """Fraction of requests that missed."""
        if self.requests == 0:
            return 0.0
        return self.misses / self.requests

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests that hit."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests


def _materialise(trace: Union[Trace, Sequence, Iterable, np.ndarray]) -> List:
    """Normalise any accepted trace representation to a list of keys."""
    if isinstance(trace, Trace):
        return trace.as_list()
    if isinstance(trace, np.ndarray):
        return trace.tolist()
    if isinstance(trace, list):
        return trace
    return list(trace)


def _simulate_fast(policy: EvictionPolicy, trace, warmup: int,
                   timeseries=None) -> Optional[SimResult]:
    """One cell through the fast engine; ``None`` on fallback."""
    from repro.sim.fast.dispatch import engine_for
    from repro.sim.fast.intern import intern_trace

    interned = intern_trace(trace)
    engine = engine_for(policy, interned.num_unique)
    if engine is None:
        return None
    mask = engine.replay(interned.ids, warmup=warmup)
    if timeseries is not None:
        # Windowed curves fall out of the hit mask post-hoc -- the hot
        # replay stays untouched, which is what keeps the overhead gate
        # (<5% at cadence 1/1000) satisfiable.
        timeseries.record_mask(mask, warmup=warmup, policy=policy.name)
    return SimResult(
        policy=policy.name,
        requests=engine.requests,
        hits=engine.hits,
        misses=engine.misses,
    )


def simulate(
    policy: EvictionPolicy,
    trace: Union[Trace, Sequence, Iterable, np.ndarray],
    options: Optional[SimOptions] = None,
) -> SimResult:
    """Replay *trace* through *policy* and return the hit/miss outcome.

    *options* is a :class:`~repro.sim.options.SimOptions` bundling the
    run configuration (the defaults when ``None``).

    ``options.warmup`` requests are replayed first and excluded from
    the reported statistics (the cache state they build is kept).
    ``options.listeners`` are attached for the duration of the run and
    observe *all* requests including warmup.

    ``options.fast=True`` dispatches to the policy's vectorized engine when one
    exists (the result is bit-identical); unsupported policies, offline
    policies, listeners, or prior policy state silently fall back to
    the reference loop.  The fast path leaves *policy* untouched -- use
    the reference path when the final cache contents matter.

    With ``options.metrics`` set, summary counters
    (``sim_requests_total`` / ``sim_hits_total`` / ``sim_misses_total``,
    labelled by policy) are recorded after the run -- no per-request
    overhead.  With ``options.timeseries`` set, the same counters are
    additionally recorded as *windowed* curves on the recorder's
    cadence: the reference loop ticks the recorder per request, the
    fast path derives the windows from the engine's hit mask post-hoc.
    """
    opts = resolve_options(options)
    warmup = opts.warmup
    listeners = list(opts.listeners)
    fast = opts.resolved_fast(False)

    # One-shot iterables stay on the reference path: a failed dispatch
    # must leave the trace unconsumed for the fallback below.
    if (fast and not listeners
            and not isinstance(policy, OfflinePolicy)
            and isinstance(trace, (Trace, list, tuple, np.ndarray))):
        result = _simulate_fast(policy, trace, warmup, opts.timeseries)
        if result is not None:
            return _record_sim_metrics(result, opts)

    keys = _materialise(trace)
    if warmup > len(keys):
        raise ValueError(
            f"warmup ({warmup}) exceeds trace length ({len(keys)})")

    if isinstance(policy, OfflinePolicy):
        policy.prepare(keys)

    recorder = opts.timeseries
    probe = None
    if recorder is not None:
        # Cumulative-stats probe: the recorder turns these into windowed
        # deltas at each sample, so the hot loop pays one tick() call
        # per request and no registry updates.
        from repro.obs.timeseries import series_key

        stats_src = policy.stats
        series = {series_key(f"sim_{part}_total", {"policy": policy.name}):
                  part for part in ("requests", "hits", "misses")}

        def probe() -> dict:
            return {key: float(getattr(stats_src, part))
                    for key, part in series.items()}

        recorder.add_probe(probe)

    attached = listeners or []
    for listener in attached:
        policy.add_listener(listener)
    try:
        request = policy.request  # bind once: this loop dominates runtime
        it = iter(keys)
        for key in islice(it, warmup):
            request(key)
        policy.stats.reset()
        if recorder is None:
            for key in it:
                request(key)
        else:
            tick = recorder.tick
            for key in it:
                request(key)
                tick()
            recorder.flush()
    finally:
        if probe is not None:
            recorder.remove_probe(probe)
        for listener in attached:
            policy.remove_listener(listener)

    stats = policy.stats
    return _record_sim_metrics(SimResult(
        policy=policy.name,
        requests=stats.requests,
        hits=stats.hits,
        misses=stats.misses,
    ), opts)


def _record_sim_metrics(result: SimResult, opts: SimOptions) -> SimResult:
    """Record the run's summary counters into ``opts.metrics``, if any."""
    registry = opts.metrics
    if registry is not None:
        registry.counter("sim_requests_total", "Requests simulated",
                         policy=result.policy).inc(result.requests)
        registry.counter("sim_hits_total", "Simulated cache hits",
                         policy=result.policy).inc(result.hits)
        registry.counter("sim_misses_total", "Simulated cache misses",
                         policy=result.policy).inc(result.misses)
    return result


def miss_ratio(policy: EvictionPolicy, trace) -> float:
    """Convenience: simulate and return just the miss ratio."""
    return simulate(policy, trace).miss_ratio


__all__ = ["SimResult", "SimOptions", "simulate", "miss_ratio"]
