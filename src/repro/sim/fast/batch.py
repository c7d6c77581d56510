"""BatchRunner: one interned trace, many (policy, size) cells.

The sweep shape every experiment needs -- ``run_sweep``,
``simulated_mrc``, the size sweep -- replays the *same* trace through
many policy/capacity combinations.  The reference path re-materialised
the request list per cell; here the trace is interned once (cached on
the :class:`Trace`) and each cell is one :meth:`run` call that builds
the policy's fast engine and replays the shared id array.  Cells whose
policy has no fast engine return ``None`` so callers can fall back to
the reference simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.base import EvictionPolicy
from repro.policies.registry import REGISTRY
from repro.sim.fast.dispatch import engine_for, has_fast_engine
from repro.sim.fast.intern import InternedTrace, intern_trace
from repro.traces.trace import Trace

TraceLike = Union[Trace, Sequence[int], np.ndarray]


@dataclass(frozen=True)
class BatchOutcome:
    """One fast cell's result."""

    policy: str
    capacity: int
    requests: int
    hits: int
    misses: int
    promotions: int

    @property
    def miss_ratio(self) -> float:
        """Fraction of counted requests that missed."""
        return self.misses / self.requests if self.requests else 0.0

    @property
    def hit_ratio(self) -> float:
        """Fraction of counted requests that hit."""
        return self.hits / self.requests if self.requests else 0.0


class BatchRunner:
    """Replay a shared interned trace through many simulation cells.

    A :class:`Trace` keeps its own interning memo; a plain sequence is
    interned once per runner and reused while the same object is
    passed again.
    """

    def __init__(self) -> None:
        self._interned: Optional[InternedTrace] = None
        #: The plain sequence ``_interned`` came from, held so that its
        #: identity cannot pass to a later sequence.
        self._source: Optional[TraceLike] = None

    def _ids_for(self, trace: TraceLike) -> InternedTrace:
        if isinstance(trace, Trace):
            return intern_trace(trace)
        if self._interned is not None and self._source is trace:
            return self._interned
        interned = intern_trace(trace)
        self._interned = interned
        self._source = trace
        return interned

    def run(self, policy_name: str, trace: TraceLike, capacity: int,
            warmup: int = 0,
            mask_sink: Optional[Callable[[np.ndarray], None]] = None,
            ) -> Optional[BatchOutcome]:
        """Run one (policy, capacity) cell over *trace*.

        Returns ``None`` when *policy_name* has no fast engine; the
        caller decides whether to fall back to the reference simulator.
        *mask_sink*, if given, receives the engine's per-request hit
        mask (``run_sweep`` feeds it to a
        :class:`~repro.obs.timeseries.TimeSeriesRecorder` to derive
        windowed curves without touching the replay loop).
        """
        if not has_fast_engine(policy_name):
            return None
        spec = REGISTRY[policy_name]
        policy = spec.factory(capacity)
        return self.run_policy(policy, trace, warmup=warmup,
                               mask_sink=mask_sink)

    def run_policy(self, policy: EvictionPolicy, trace: TraceLike,
                   warmup: int = 0,
                   mask_sink: Optional[Callable[[np.ndarray], None]] = None,
                   ) -> Optional[BatchOutcome]:
        """Run one cell for an already-built reference policy instance."""
        interned = self._ids_for(trace)
        engine = engine_for(policy, interned.num_unique)
        if engine is None:
            return None
        mask = engine.replay(interned.ids, warmup=warmup)
        if mask_sink is not None:
            mask_sink(mask)
        return BatchOutcome(
            policy=engine.name,
            capacity=policy.capacity,
            requests=engine.requests,
            hits=engine.hits,
            misses=engine.misses,
            promotions=engine.promotions,
        )


__all__ = ["BatchOutcome", "BatchRunner"]
