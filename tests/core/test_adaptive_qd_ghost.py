"""Quick Demotion's ghost, updated in the wrapper's own frame.

:class:`~repro.core.qd.QDCache` tests and updates its ghost's dict
directly on a miss and in ``_demote_one``.  Two things make that equal
to calling :class:`~repro.core.ghost.GhostQueue`'s methods:

* the ghost limit is read at every demotion, because
  :class:`~repro.core.adaptive_qd.AdaptiveQDLPFIFO` moves it whenever
  it moves the probationary share;
* a demoted key is appended, never refreshed, because a key in
  probation is never in the ghost: it entered probation on a miss that
  did not find it there, and only a demotion adds a key to the ghost.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.adaptive_qd import AdaptiveQDLPFIFO
from repro.policies.registry import make
from repro.traces.zipf import ZipfSampler

from tests.conftest import FAMILIES


def test_adaptive_run_keeps_its_misses_while_the_ghost_limit_moves():
    """Zipf 0.8 over 5 000 keys into 500 slots, adapting every 256
    requests: 30 420 misses, as with GhostQueue's own add and remove
    (a ghost limit read once at construction gives 30 876)."""
    keys = ZipfSampler(5_000, 0.8, np.random.default_rng(3)).sample(60_000)
    cache = AdaptiveQDLPFIFO(500, window=256)
    limits = set()
    for key in keys.tolist():
        cache.request(key)
        limits.add(cache.ghost.max_entries)
    assert len(limits) >= 10
    assert cache.stats.misses == 30_420


@given(family=st.sampled_from(sorted(FAMILIES)),
       seed=st.integers(0, 2**32 - 1),
       capacity=st.integers(2, 40),
       adaptive=st.booleans(),
       n=st.integers(1, 1500))
@settings(max_examples=60, deadline=None)
def test_probation_and_ghost_never_share_a_key(family, seed, capacity,
                                               adaptive, n):
    keys = FAMILIES[family](np.random.default_rng(seed), capacity,
                            n).tolist()
    cache = (AdaptiveQDLPFIFO(capacity, window=16) if adaptive
             else make("QD-LP-FIFO", capacity))
    for key in keys:
        cache.request(key)
        assert not cache._probation.keys() & cache.ghost._entries.keys()
