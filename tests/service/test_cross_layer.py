"""Cross-layer oracle: every layer agrees with the policy below it.

On a seeded, fault-free Zipf trace on a :class:`VirtualClock`, a
request's hit or miss must not depend on which layer carried it:
``policy.request`` directly, :func:`simulate` (reference and fast),
:func:`run_sweep` in-process and fanned out, :meth:`CacheService.get`,
a one-shard :func:`build_cluster`, the closed- and open-loop load
harnesses, and (for policies with a size-aware twin) a one-tier
:class:`CacheHierarchy`, at unit size and with Zipf keys carrying
Pareto sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import build_cluster
from repro.cluster.loadgen import run_cluster_load, run_open_cluster_load
from repro.exec.clock import VirtualClock
from repro.hierarchy import CacheHierarchy, HierarchyConfig, TierConfig
from repro.policies.registry import (
    REGISTRY,
    SIZED_COUNTERPARTS,
    make,
    make_sized,
)
from repro.service.backend import InMemoryBackend
from repro.service.loadgen import run_load, run_open_load
from repro.service.overload import DROPPED, ArrivalSchedule
from repro.service.service import CacheService
from repro.sim.fast import has_fast_engine
from repro.sim.options import SimOptions
from repro.sim.runner import run_sweep
from repro.sim.simulator import simulate
from repro.sized.workloads import unique_bytes
from repro.traces.synthetic import zipf_trace
from repro.traces.trace import Trace

from tests.conftest import zipf_pareto_trace

ONLINE_POLICIES = sorted(name for name in REGISTRY if name != "Belady")
HARNESS_POLICIES = ["FIFO", "LRU", "2-bit-CLOCK", "ARC", "LHD",
                    "QD-LP-FIFO", "S3-FIFO"]
CAPACITY = 30


@pytest.fixture(scope="module")
def keys():
    return zipf_trace(200, 3000, 0.9, np.random.default_rng(20231)).tolist()


class EvenArrivals(ArrivalSchedule):
    """One arrival every *gap* seconds: far below saturation."""

    def __init__(self, count: int, gap: float = 0.1) -> None:
        self.count = count
        self.gap = gap
        self.duration = count * gap

    def times(self):
        return [index * self.gap for index in range(self.count)]


def reference(name, keys, capacity=CAPACITY):
    """``(hit sequence, final resident set, hit count)`` from the policy."""
    policy = make(name, capacity)
    hits = [policy.request(key) for key in keys]
    return hits, {key for key in set(keys) if key in policy}, sum(hits)


def service(name):
    return CacheService(make(name, CAPACITY), InMemoryBackend(),
                        clock=VirtualClock())


def cluster(name):
    return build_cluster(lambda: make(name, CAPACITY), shards=1,
                         clock=VirtualClock())


@pytest.mark.parametrize("name", ONLINE_POLICIES)
def test_simulate_reports_the_reference_misses(name, keys):
    _, _, expected = reference(name, keys)
    assert simulate(make(name, CAPACITY), keys).misses == \
        len(keys) - expected
    if has_fast_engine(name):
        fast = simulate(make(name, CAPACITY), keys, SimOptions(fast=True))
        assert fast.misses == len(keys) - expected


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_reports_the_reference_misses(workers, keys):
    result = run_sweep(ONLINE_POLICIES, [Trace("cross", np.array(keys))],
                       size_fractions=[0.15], workers=workers)
    assert result.ok
    assert [record.policy for record in result.records] == ONLINE_POLICIES
    assert result.accelerated == sum(map(has_fast_engine, ONLINE_POLICIES))
    for record in result.records:
        _, _, expected = reference(record.policy, keys, record.capacity)
        assert (record.requests, record.misses) == \
            (len(keys), len(keys) - expected), record.policy


@pytest.mark.parametrize("name", ONLINE_POLICIES)
def test_service_and_cluster_replay_the_policy(name, keys):
    hits, resident, _ = reference(name, keys)
    single = service(name)
    assert [single.get(key).outcome == "hit" for key in keys] == hits
    assert set(single.cached_keys()) == resident
    routed = cluster(name)
    assert [routed.get(key).outcome == "hit" for key in keys] == hits
    shard = routed.shards["s0"]
    assert set(shard.cached_keys()) == resident
    routed.metrics.check_conservation()
    for layer in (single, shard):
        stats = layer.policy.stats
        counts = layer.metrics.counts
        assert (stats.hits, stats.misses) == (counts["hit"], counts["miss"])


@pytest.mark.parametrize("name", HARNESS_POLICIES)
def test_load_harnesses_report_the_reference_hits(name, keys):
    _, _, expected = reference(name, keys)
    closed = run_load(service(name), keys)
    assert (closed.outcomes["hit"], closed.requests) == (expected, len(keys))
    closed_cluster = run_cluster_load(cluster(name), keys)
    assert closed_cluster.outcomes["hit"] == expected
    schedule = EvenArrivals(len(keys))
    for report in (run_open_load(service(name), keys, schedule),
                   run_open_cluster_load(cluster(name), keys, schedule)):
        report.check_conservation()
        assert report.outcomes.get(DROPPED, 0) == 0
        assert report.outcomes["hit"] == expected
        assert report.outcomes["hit"] + report.outcomes["miss"] == len(keys)


@pytest.mark.parametrize("capacity", [10, 30, 100])
@pytest.mark.parametrize("name", sorted(SIZED_COUNTERPARTS))
def test_one_tier_unit_size_hierarchy_matches_unsized(name, capacity, keys):
    hits, resident, _ = reference(name, keys, capacity)
    hierarchy = CacheHierarchy(HierarchyConfig(tiers=(
        TierConfig("dram", capacity, policy=SIZED_COUNTERPARTS[name]),)))
    assert [hierarchy.request(key, 1) == "dram" for key in keys] == hits
    assert {key for key in set(keys) if key in hierarchy} == resident
    hierarchy.check_conservation()


@pytest.mark.parametrize("share", [50, 20, 5])
@pytest.mark.parametrize("name", sorted(SIZED_COUNTERPARTS))
def test_one_tier_sized_hierarchy_matches_the_sized_policy(name, share):
    keys, sizes = trace = zipf_pareto_trace(20231)
    capacity = unique_bytes(trace) // share
    sized = SIZED_COUNTERPARTS[name]
    policy = make_sized(sized, capacity)
    hits = [policy.request(key, size) for key, size in zip(keys, sizes)]
    hierarchy = CacheHierarchy(HierarchyConfig(tiers=(
        TierConfig("dram", capacity, policy=sized),)))
    assert [hierarchy.request(key, size) == "dram"
            for key, size in zip(keys, sizes)] == hits
    assert {key for key in set(keys) if key in hierarchy} == \
        {key for key in set(keys) if key in policy}
    hierarchy.check_conservation()
