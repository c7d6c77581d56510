"""Known answer: LRU under the stack-depth model, request by request.

:func:`~repro.traces.synthetic.temporal_locality_trace` keeps every
object on one stack, draws a depth *d* for each request, references the
object at depth *d* and moves it to the top.  LRU with *k* slots then
hits request *i* exactly when ``d < k`` and its key was requested
before.  Objects never referenced keep their initial order below every
referenced one, since only a reference moves an object up.  So after a
key's last reference, the objects above it are exactly the distinct
keys referenced since then, and its depth counts them.  LRU holds the
*k* most recently referenced distinct keys, which holds a key seen
before exactly when fewer than *k* others were referenced since its
last reference: when its depth is below *k*.  A key never requested is
a miss at any depth.

The depths are drawn again from the same seed, as the trace draws
them: ``ZipfSampler(N, alpha, default_rng(seed)).sample(R)``.
"""

import numpy as np
import pytest

from repro.policies.registry import make
from repro.traces.synthetic import temporal_locality_trace
from repro.traces.zipf import ZipfSampler

OBJECTS = 2_000
REQUESTS = 30_000
CAPACITIES = (1, 10, 100, 1_000)


@pytest.mark.parametrize("alpha", [0.6, 0.9, 1.2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lru_hits_exactly_the_shallow_repeats(alpha, seed):
    keys = temporal_locality_trace(OBJECTS, REQUESTS, alpha,
                                   np.random.default_rng(seed)).tolist()
    depths = ZipfSampler(OBJECTS, alpha,
                         np.random.default_rng(seed)).sample(REQUESTS)
    depths = depths.tolist()
    for k in CAPACITIES:
        lru = make("LRU", k)
        seen = set()
        hits = 0
        for i, (key, depth) in enumerate(zip(keys, depths)):
            expected = depth < k and key in seen
            assert lru.request(key) == expected, (k, i, key, depth)
            seen.add(key)
            hits += expected
        # Each capacity sees both outcomes, so the check has teeth.
        assert 0 < hits < REQUESTS
