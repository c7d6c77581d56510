"""LHD's eviction scan reads the density it would have computed.

The scan indexes one padded row per class by ``(age + 1).bit_length()``
instead of computing ``_age_bucket(age)`` per sample.  That is the same
entry at every age: for ``age >= 0``, ``(age + 1).bit_length() - 1`` is
``floor(log2(age + 1))``, the bucket below the cap, so entry ``b + 1``
must hold bucket *b* and every entry past the top must repeat bucket
31.  The checks run at both edges of every binade, ``2**b - 1`` (the
first age of bucket *b*) and ``2**b``, up to ``2**62``, on density
tables after random sweeps, and on the rows both LHD implementations
keep while they run.
"""

import random

import numpy as np
import pytest

from repro.policies.lhd import (
    LHD,
    _NUM_BUCKETS,
    _age_bucket,
    scan_rows,
    sweep_densities,
)
from repro.sim.fast.lhd import FastLHD

EDGE_AGES = sorted({age for b in range(63) for age in (2**b - 1, 2**b)})


def random_tables(seed):
    """Density tables after a few sweeps of random histograms."""
    rng = random.Random(seed)
    density = [[rng.random() for _ in range(_NUM_BUCKETS)]
               for _ in range(2)]
    for _ in range(rng.randint(1, 4)):
        hits = [[rng.choice([0.0, rng.random() * 100])
                 for _ in range(_NUM_BUCKETS)] for _ in range(2)]
        evictions = [[rng.random() * 100 for _ in range(_NUM_BUCKETS)]
                     for _ in range(2)]
        sweep_densities(hits, evictions, density, 0.9)
    return density


def assert_rows_match(rows, density):
    for klass in range(2):
        for age in EDGE_AGES:
            assert (rows[klass][(age + 1).bit_length()]
                    == density[klass][_age_bucket(age)]), (klass, age)


@pytest.mark.parametrize("seed", range(20))
def test_scan_row_equals_the_bucketed_density(seed):
    density = random_tables(seed)
    assert_rows_match(scan_rows(density), density)


def test_reference_lhd_rebuilds_its_rows_after_every_sweep():
    keys = np.random.default_rng(7).zipf(1.1, 30_000) % 4_000
    cache = LHD(200)
    sweeps = 0
    for key in keys.tolist():
        before = cache._next_reconf
        cache.request(key)
        if cache._next_reconf != before:
            sweeps += 1
            assert cache._rows == scan_rows(cache._density)
    assert sweeps >= 20
    assert_rows_match(cache._rows, cache._density)


def test_fast_lhd_rebuilds_its_rows_after_every_sweep():
    ids = np.random.default_rng(7).zipf(1.1, 30_000) % 4_000
    policy = LHD(200)
    engine = FastLHD(200, 4_000, sample_size=policy.sample_size,
                     ewma_decay=policy.ewma_decay,
                     reconf_interval=policy._reconf_interval,
                     rng_state=policy._rng.getstate())
    engine.replay(ids)
    assert engine.next_reconf > 20 * engine.reconf_interval
    assert engine.rows == scan_rows(engine.density)
    assert_rows_match(engine.rows, engine.density)
