"""Unit tests for LHD and its bulk eviction sampler."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.lhd import LHD, RandrangeStream, _age_bucket, _bucket_mid
from tests.conftest import drive


class TestAgeCoarsening:
    def test_bucket_zero(self):
        assert _age_bucket(0) == 0
        assert _age_bucket(-3) == 0

    def test_log_growth(self):
        assert _age_bucket(1) == 1
        assert _age_bucket(3) == 2
        assert _age_bucket(7) == 3
        assert _age_bucket(2 ** 20) == 20

    def test_bucket_capped(self):
        assert _age_bucket(2 ** 60) == 31

    def test_matches_float_log2_below_2_47(self):
        """The integer bucket equals the float ``int(log2(age + 1))``
        form around every power of two below 2**47."""
        for k in range(47):
            for age in range(2 ** k - 2, 2 ** k + 2):
                expected = (0 if age <= 0
                            else min(int(math.log2(age + 1)), 31))
                assert _age_bucket(age) == expected, age

    def test_mid_inside_bucket_range(self):
        for bucket in range(8):
            lo = (1 << bucket) - 1
            hi = (1 << (bucket + 1)) - 2
            assert lo <= _bucket_mid(bucket) <= hi


class TestLHD:
    def test_invalid_sample_size(self):
        with pytest.raises(ValueError):
            LHD(10, sample_size=0)

    def test_basic_hit_miss(self):
        cache = LHD(3)
        assert cache.request("a") is False
        assert cache.request("a") is True

    def test_capacity_never_exceeded(self, zipf_keys):
        cache = LHD(25)
        for key in zipf_keys:
            cache.request(key)
            assert len(cache) <= 25

    def test_index_consistency(self, zipf_keys):
        cache = LHD(20)
        for key in zipf_keys[:3000]:
            cache.request(key)
            assert len(cache._keys) == len(cache._pos) == len(cache._meta)

    def test_reconfiguration_happens(self, zipf_keys):
        cache = LHD(20)
        initial = [row[:] for row in cache._density]
        for key in zipf_keys:
            cache.request(key)
        assert cache._density != initial

    def test_density_prior_prefers_young(self):
        """Before any statistics, the prior ranks younger objects
        denser, giving LRU-ish cold-start evictions."""
        cache = LHD(10)
        densities = cache._density[0]
        assert all(densities[i] >= densities[i + 1]
                   for i in range(len(densities) - 1))

    def test_hits_recorded_in_histograms(self):
        cache = LHD(10)
        cache.request("a")
        cache.request("a")
        assert sum(cache._hits[0]) + sum(cache._hits[1]) > 0

    def test_deterministic_with_seed(self, zipf_keys):
        a = LHD(25, seed=2)
        b = LHD(25, seed=2)
        assert drive(a, zipf_keys) == drive(b, zipf_keys)

    def test_beats_fifo_on_skewed_workload(self, zipf_keys):
        from repro.policies.fifo import FIFO
        lhd, fifo = LHD(50), FIFO(50)
        drive(lhd, zipf_keys)
        drive(fifo, zipf_keys)
        assert lhd.stats.miss_ratio < fifo.stats.miss_ratio

    def test_spends_less_on_unpopular_than_lru(self, rng):
        """The Fig. 3 property, asserted directly: LHD's space-time
        share on the unpopular half is below LRU's."""
        from repro.policies.lru import LRU
        from repro.sim.profiler import profile
        from repro.experiments.fig3 import resource_shares_by_popularity
        from repro.traces.synthetic import one_hit_wonder_trace
        from repro.traces.trace import Trace
        keys = one_hit_wonder_trace(2000, 40000, 0.9, 0.3, rng)
        trace = Trace(name="t", keys=keys)
        cap = 400
        shares = {}
        for policy in (LRU(cap), LHD(cap)):
            result = profile(policy, trace)
            deciles = resource_shares_by_popularity(result, trace)
            shares[policy.name] = sum(deciles[5:])
        assert shares["LHD"] < shares["LRU"]


def _sampler_sizes():
    sizes = {33, 2 ** 32 - 1}
    for k in range(32):
        sizes.update(n for n in (2 ** k - 1, 2 ** k, 2 ** k + 1)
                     if 1 <= n <= 2 ** 31 - 1)
    return sorted(sizes)


@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       advance=st.integers(min_value=1, max_value=400),
       n=st.sampled_from(_sampler_sizes()),
       take=st.integers(min_value=1, max_value=RandrangeStream.BLOCK + 5))
@settings(max_examples=40, deadline=None)
def test_randrange_stream_matches_randrange(seed, advance, n, take):
    """The bulk sampler returns ``random.Random.randrange(n)``'s exact
    sequence from any generator state, across several block refills."""
    rng = random.Random(seed)
    for _ in range(advance):   # leave the state mid-block
        rng.random()
    stream = RandrangeStream(rng.getstate(), n)
    drawn = []
    while len(drawn) < 3 * RandrangeStream.BLOCK:
        drawn += stream.take(take)
    assert drawn == [rng.randrange(n) for _ in range(len(drawn))]


@pytest.mark.parametrize("n", [0, 2 ** 32])
def test_randrange_stream_rejects_sizes_outside_one_word(n):
    """``randrange(2**32)`` takes two 32-bit words per draw, so the
    one-word stream stops just below it."""
    with pytest.raises(ValueError, match="2\\*\\*32"):
        RandrangeStream(random.Random(0).getstate(), n)
