"""Select a fast engine for a reference policy instance.

Dispatch is by *exact* type so behavioural subclasses never match a
fast engine silently.  Configuration is read off the built instance,
so both implementations always agree on parameter rounding.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import EvictionPolicy
from repro.policies.lhd import LHD
from repro.sim.fast.lhd import FastLHD

#: Registry names with a fast engine (given their default factories).
#: Every other policy is left out on purpose: at the paper's cache
#: sizes its reference loop is faster than an engine (see "Removed
#: engines" in docs/performance.md).
FAST_POLICY_NAMES = frozenset({"LHD"})


def engine_for(policy: EvictionPolicy,
               num_unique: int) -> Optional[FastLHD]:
    """The fast engine mirroring *policy*, or ``None`` if unsupported.

    Only fresh, unobserved policies dispatch: prior requests or
    attached listeners mean per-request callbacks/state the chunked
    engine cannot reproduce, so the caller must fall back to the
    reference implementation.
    """
    if policy.stats.requests or len(policy) or policy._listeners:
        return None
    if type(policy) is not LHD:
        return None
    engine = FastLHD(
        policy.capacity, num_unique,
        sample_size=policy.sample_size,
        ewma_decay=policy.ewma_decay,
        reconf_interval=policy._reconf_interval,
        rng_state=policy._rng.getstate())
    engine.name = policy.name
    return engine


def has_fast_engine(name: str) -> bool:
    """Whether the registry policy *name* dispatches to a fast engine."""
    return name in FAST_POLICY_NAMES


__all__ = ["FAST_POLICY_NAMES", "engine_for", "has_fast_engine"]
