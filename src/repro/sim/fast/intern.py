"""Trace interning: arbitrary int64 keys -> dense ids ``0..U-1``.

Dense ids let every engine replace its per-key dict with a preallocated
array indexed by id -- the single change that makes vectorized
membership tests (``slot_of[ids] >= 0``) possible.  Interning costs one
``np.unique`` pass; the result is cached on the :class:`Trace` so a
sweep over many (policy, size) cells pays it once per trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.traces.trace import Trace


@dataclass(frozen=True)
class InternedTrace:
    """A request sequence as dense ids plus the id -> key mapping."""

    ids: np.ndarray       # int64, values in [0, num_unique)
    num_unique: int
    uniques: np.ndarray   # uniques[id] == original key

    @property
    def num_requests(self) -> int:
        """Number of requests in the interned sequence."""
        return int(self.ids.size)


def intern_trace(
    trace: Union[Trace, Sequence[int], np.ndarray],
) -> InternedTrace:
    """Intern *trace*, caching the result on :class:`Trace` instances.

    A warm :class:`Trace` returns its memo; anything else pays one
    ``np.unique`` pass.
    """
    if isinstance(trace, Trace):
        cached = trace._interned
        if cached is not None:
            return cached
        keys = trace.keys
    else:
        keys = np.asarray(
            trace if isinstance(trace, np.ndarray) else list(trace),
            dtype=np.int64)
        if keys.ndim != 1:
            raise ValueError("trace keys must be a 1-D sequence")
    uniques, inverse = np.unique(keys, return_inverse=True)
    interned = InternedTrace(
        ids=np.ascontiguousarray(inverse, dtype=np.int64),
        num_unique=int(uniques.size),
        uniques=uniques,
    )
    if isinstance(trace, Trace):
        trace._interned = interned
    return interned


__all__ = ["InternedTrace", "intern_trace"]
