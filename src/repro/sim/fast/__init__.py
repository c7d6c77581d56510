"""Array-backed fast simulation engines (see docs/performance.md).

The reference policies in :mod:`repro.core` / :mod:`repro.policies`
spend nearly all their time in per-request Python.  For LHD and
QD-LHD, whose requests are the most expensive, the engines in this
package replay the *same* algorithms over interned ``int64`` id arrays
with preallocated slot/index arrays, processing requests in chunks so
that miss detection and hit bookkeeping are vectorized with numpy and
only true evict decisions drop to scalar code.  Every engine is
bit-identical to its reference policy: same hit/miss outcome per
request, same final cache contents, same promotion count (gated by
differential tests).  Every other policy runs the reference loop,
which is faster than an engine at the paper's cache sizes.

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
