"""Array-backed fast simulation (see docs/performance.md).

One engine is left: :class:`~repro.sim.fast.lhd.FastLHD` replays the
reference LHD over interned ``int64`` id arrays in chunks, counting
the hits of chunks that cannot evict with numpy and running the
reference request loop on the rest.  It is bit-identical to the
reference policy: same hit/miss outcome per request, same final cache
contents, same promotion count (gated by differential tests).  Every
other policy runs the reference loop, which is faster than an engine
at the paper's cache sizes.

Entry points:

* :func:`~repro.sim.fast.dispatch.engine_for` -- build the fast engine
  mirroring a reference policy instance (``None`` when unsupported).
* :class:`~repro.sim.fast.batch.BatchRunner` -- intern a trace once and
  replay it through many (policy, size) cells.
"""

from repro.sim.fast.batch import BatchOutcome, BatchRunner
from repro.sim.fast.dispatch import (
    FAST_POLICY_NAMES,
    engine_for,
    has_fast_engine,
)
from repro.sim.fast.intern import InternedTrace, intern_trace

__all__ = [
    "BatchOutcome",
    "BatchRunner",
    "FAST_POLICY_NAMES",
    "InternedTrace",
    "engine_for",
    "has_fast_engine",
    "intern_trace",
]
