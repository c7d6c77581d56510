"""Cache-resource-consumption profiling (paper §4, Fig. 3 and Fig. 2e).

The paper measures how much cache *space-time* each object consumes:
an object admitted at ``t_insert`` and evicted at ``t_evict`` consumed
``t_evict - t_insert`` request-slots of cache space.  Efficient
algorithms spend little space-time on unpopular objects -- they demote
them quickly -- and Belady spends the least.

:func:`profile` replays a trace while recording every admit -> evict
lifetime (with the number of hits received during the tenure), which
the analysis layer then aggregates by object popularity (Fig. 3) or
uses to measure the demotion speed of never-hit objects (Fig. 2e).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.core.base import CacheListener, EvictionEvent, EvictionPolicy, Key, OfflinePolicy
from repro.traces.trace import Trace


class _Recorder(CacheListener):
    """Listener turning admit/hit/evict events into lifetimes."""

    def __init__(self) -> None:
        self.now = 0
        self._open: Dict[Key, Tuple[int, int]] = {}  # key -> (admit, hits)
        self.events: List[EvictionEvent] = []

    def on_admit(self, key: Key, weight: int = 1) -> None:
        self._open[key] = (self.now, 0)

    def on_hit(self, key: Key) -> None:
        entry = self._open.get(key)
        if entry is not None:
            self._open[key] = (entry[0], entry[1] + 1)

    def on_evict(self, key: Key, weight: int = 1) -> None:
        admit, hits = self._open.pop(key)
        self.events.append(EvictionEvent(key, admit, self.now, hits))

    def close(self, final_time: int) -> None:
        """Close out still-resident objects at the end of the trace."""
        for key, (admit, hits) in self._open.items():
            self.events.append(EvictionEvent(key, admit, final_time, hits))
        self._open.clear()


@dataclass
class ProfileResult:
    """Lifetimes plus derived per-key aggregates for one run."""

    policy: str
    requests: int
    misses: int
    events: List[EvictionEvent] = field(default_factory=list)

    @property
    def miss_ratio(self) -> float:
        """Miss ratio of the profiled run."""
        if self.requests == 0:
            return 0.0
        return self.misses / self.requests

    def residency_by_key(self) -> Dict[Key, int]:
        """Total space-time consumed per object across all tenures."""
        totals: Dict[Key, int] = {}
        for event in self.events:
            totals[event.key] = totals.get(event.key, 0) + event.residency
        return totals

    def zero_hit_eviction_ages(self) -> List[int]:
        """Residencies of tenures that received no hit before eviction.

        These are the unpopular objects quick demotion targets: the
        smaller these ages, the faster the algorithm demotes (Fig. 2e).
        """
        return [e.residency for e in self.events if e.hits == 0]

    def mean_zero_hit_age(self) -> float:
        """Mean demotion age of never-hit tenures; 0.0 when none.

        Zero rather than NaN so the value survives strict-JSON export
        and ``repro diff`` comparison (NaN != NaN).
        """
        ages = self.zero_hit_eviction_ages()
        if not ages:
            return 0.0
        return float(np.mean(ages))

    def snapshot_rows(self, labels: Union[Dict[str, str], None] = None
                      ) -> List[dict]:
        """This profile as ``repro.obs`` snapshot rows.

        Fig. 2e / Fig. 3 data used to live in a bespoke path; exporting
        it in the metrics wire format means the JSONL / Prometheus /
        table exporters (and the journal + ``repro diff``) all work on
        lifetime results unchanged:

        * ``profile_requests_total`` / ``profile_misses_total`` /
          ``profile_tenures_total{tenure=hit|zero-hit}`` counters,
        * ``profile_space_time_requests_total{tenure=}`` counters --
          the paper's space-time-consumed aggregate,
        * ``profile_eviction_age_requests{tenure=}`` histograms over
          the standard eviction-age buckets.

        Every row carries ``policy=<name>`` plus any extra *labels*.
        """
        from repro.obs.metrics import (DEFAULT_AGE_BUCKETS,
                                       MetricsRegistry)

        base = {"policy": self.policy, **(labels or {})}
        registry = MetricsRegistry()
        registry.counter("profile_requests_total",
                         "Requests replayed by the profiler",
                         **base).inc(self.requests)
        registry.counter("profile_misses_total",
                         "Misses during the profiled replay",
                         **base).inc(self.misses)
        for event in self.events:
            tenure = "zero-hit" if event.hits == 0 else "hit"
            registry.counter(
                "profile_tenures_total",
                "Completed admit->evict tenures",
                tenure=tenure, **base).inc()
            registry.counter(
                "profile_space_time_requests_total",
                "Space-time consumed (request-slots) by tenures",
                tenure=tenure, **base).inc(event.residency)
            registry.histogram(
                "profile_eviction_age_requests",
                "Eviction-age distribution (requests)",
                buckets=DEFAULT_AGE_BUCKETS,
                tenure=tenure, **base).observe(event.residency)
        return registry.snapshot()


def profile(
    policy: EvictionPolicy,
    trace: Union[Trace, list, np.ndarray],
) -> ProfileResult:
    """Replay *trace* through *policy*, recording object lifetimes."""
    if isinstance(trace, Trace):
        keys = trace.as_list()
    elif isinstance(trace, np.ndarray):
        keys = trace.tolist()
    else:
        keys = list(trace)

    if isinstance(policy, OfflinePolicy):
        policy.prepare(keys)

    recorder = _Recorder()
    policy.add_listener(recorder)
    try:
        request = policy.request
        for t, key in enumerate(keys):
            recorder.now = t
            request(key)
    finally:
        policy.remove_listener(recorder)
    recorder.close(len(keys))

    return ProfileResult(
        policy=policy.name,
        requests=policy.stats.requests,
        misses=policy.stats.misses,
        events=recorder.events,
    )


__all__ = ["ProfileResult", "profile"]
