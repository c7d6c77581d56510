"""Known answers under the independent reference model (IRM).

When requests are drawn independently from known probabilities
p1 >= p2 >= ..., a cache of k slots has closed-form limits (Bilardi &
Versaci derive optimal eviction for stochastic traces; IRM is the
simplest of them):

* no policy beats the static top-k hit ratio, sum of p_i for i <= k;
* no policy that admits every miss beats A0, which keeps the k-1 most
  probable keys and gives its last slot to the latest other key:
  S + sum of p_j**2 / (1 - S) for j >= k, where S = sum of p_i, i < k;
* FIFO and Random have the same hit ratio (Gelenbe).

Every check allows ``tol = 4 * sqrt(h * (1 - h) / n)``, four standard
deviations of a hit ratio h measured over n requests.
"""

import math

import numpy as np
import pytest

from repro.policies.registry import REGISTRY, make
from repro.sim.simulator import simulate
from repro.traces.zipf import ZipfSampler

ONLINE_POLICIES = sorted(name for name in REGISTRY if name != "Belady")
OBJECTS = 1000
REQUESTS = 60_000
ALPHA = 0.8
K = 100


@pytest.fixture(scope="module")
def irm():
    """``(keys, probabilities by rank)`` of a seeded Zipf IRM trace."""
    sampler = ZipfSampler(OBJECTS, ALPHA, np.random.default_rng(7))
    return sampler.sample(REQUESTS).tolist(), sampler.pmf()


def hit_ratio(name, keys):
    return simulate(make(name, K), keys).hits / len(keys)


def tolerance(h):
    return 4 * math.sqrt(h * (1 - h) / REQUESTS)


def top_k_mass(p):
    return float(p[:K].sum())


def a0_hit_ratio(p):
    static = float(p[:K - 1].sum())
    return static + float((p[K - 1:] ** 2).sum()) / (1 - static)


@pytest.mark.parametrize("name", ONLINE_POLICIES)
def test_online_policy_within_irm_bounds(name, irm):
    keys, p = irm
    h = hit_ratio(name, keys)
    assert h <= top_k_mass(p) + tolerance(h)
    assert h <= a0_hit_ratio(p) + tolerance(h)


def test_fifo_and_random_agree(irm):
    keys, _ = irm
    fifo, random = hit_ratio("FIFO", keys), hit_ratio("Random", keys)
    assert abs(fifo - random) <= 2 * tolerance((fifo + random) / 2)


def test_belady_beats_the_static_bound(irm):
    keys, p = irm
    belady = hit_ratio("Belady", keys)
    assert belady > top_k_mass(p) + tolerance(belady)
