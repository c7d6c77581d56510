"""A served hit pays for its work, in the service and in the cluster.

``CacheService.get`` settles a fresh hit in its own frame and asks
``_freshness`` about a copy's age only when a TTL is set;
``CacheCluster.get`` settles a request its primary served the same way,
and checks a replica for being down only when a down window or mark
names it or its ``cluster_shard_up`` gauge shows it down.  These tests
pin what that leaves a hit paying for, and that the shortcut answers
as the full rule would.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, build_cluster
from repro.exec.clock import VirtualClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import KEEP_EXEMPLAR, RequestTracer
from repro.policies.lru import LRU
from repro.service.backend import InMemoryBackend
from repro.service.service import (
    HIT,
    MISS,
    STALE,
    CacheService,
    ServiceConfig,
)
from tests.conftest import CountingLock

SHARDS = 4


def hot_cluster(**kwargs):
    """Four LRU shards, every other shard a replica of each key, and a
    key hot from its second request."""
    clock = kwargs.pop("clock", None) or VirtualClock()
    return build_cluster(
        lambda: LRU(100), shards=SHARDS,
        config=ClusterConfig(replicas=SHARDS - 1, hot_key_threshold=2),
        clock=clock, **kwargs)


def counting(calls, method):
    def counted(*args, **kwargs):
        calls.append(args)
        return method(*args, **kwargs)
    return counted


class TestClusterHit:
    def test_a_hot_hit_checks_no_replica_and_locks_once_per_layer(self):
        cluster = hot_cluster(registry=MetricsRegistry())
        key = "k"
        primary, *replicas = cluster.ring.owners(key, SHARDS)
        assert cluster.get(key).outcome == MISS      # not hot yet
        pushing = cluster.get(key)                  # hot: copies pushed
        assert (pushing.outcome, pushing.shard) == (HIT, primary)
        assert pushing.replicated_to == tuple(replicas)

        checks = []
        cluster._down.is_down = counting(checks, cluster._down.is_down)
        cluster._down._lock = CountingLock()
        cluster.hot_tracker._lock = CountingLock()
        cluster.metrics._lock = CountingLock()
        for service in cluster.shards.values():
            service._lock = CountingLock()
            service.metrics._lock = CountingLock()

        result = cluster.get(key)
        assert (result.outcome, result.shard) == (HIT, primary)
        assert result.replicated_to == ()            # each replica holds it
        assert checks == []
        assert cluster._down._lock.acquisitions == 0
        assert cluster.hot_tracker._lock.acquisitions == 1
        assert cluster.metrics._lock.acquisitions == 1
        taken = {name: (service._lock.acquisitions,
                        service.metrics._lock.acquisitions)
                 for name, service in cluster.shards.items()}
        assert taken == {name: (1, 1) if name == primary else (0, 0)
                         for name in cluster.shards}
        snap = cluster.metrics.snapshot()
        assert (snap["hit"], snap["miss"], snap["replications"]) == (
            2, 1, SHARDS - 1)

    def test_a_killed_replica_gets_no_push_and_one_gauge_write(self):
        clock = VirtualClock()
        cluster = hot_cluster(registry=MetricsRegistry(), clock=clock)
        key = "k"
        primary, *replicas = cluster.ring.owners(key, SHARDS)
        victim = replicas[0]
        cluster.kill(victim, 0.0, 100.0)
        gauge = cluster._up_gauges[victim]
        writes = []
        gauge.set = counting(writes, gauge.set)

        assert cluster.get(key).outcome == MISS      # not hot: no check
        assert writes == []
        for _ in range(3):
            clock.advance(1.0)
            result = cluster.get(key)
            assert (result.outcome, result.shard) == (HIT, primary)
            assert victim not in result.replicated_to
        assert writes == [(0,)]
        assert gauge.value == 0
        assert not cluster.shards[victim].holds_copy(key)
        assert all(cluster.shards[name].holds_copy(key)
                   for name in replicas[1:])
        # Back up, the next check writes the gauge once more.
        clock.advance(100.0)
        cluster.get(key)
        assert writes == [(0,), (1,)]

    def test_a_closed_window_stops_naming_its_shard(self):
        clock = VirtualClock()
        cluster = hot_cluster(clock=clock)
        key = "k"
        primary = cluster.ring.primary(key)
        cluster.kill(primary, 0.0, 1.0)
        clock.advance(2.0)
        cluster._down._lock = CountingLock()
        for _ in range(100):
            result = cluster.get(key)
            assert (result.outcome, result.shard) in {(MISS, primary),
                                                      (HIT, primary)}
        assert cluster._down._lock.acquisitions <= 1
        assert primary not in cluster._down._affected

    def test_a_window_yet_to_start_keeps_its_shard_named(self):
        clock = VirtualClock()
        cluster = hot_cluster(clock=clock)
        key = "k"
        primary = cluster.ring.primary(key)
        cluster.kill(primary, 0.0, 1.0)
        cluster.kill(primary, 5.0, 6.0)
        clock.advance(2.0)
        assert cluster.get(key).shard == primary       # between windows
        assert primary in cluster._down._affected
        clock.advance(3.5)                             # t=5.5
        assert cluster.shard_is_down(primary)
        assert cluster.get(key).shard != primary
        clock.advance(1.0)                             # t=6.5
        assert cluster.get(key).shard == primary
        assert primary not in cluster._down._affected
        cluster.kill(primary, 7.0, 8.0)                # named again
        clock.advance(1.0)
        assert cluster.shard_is_down(primary)
        cluster.set_down(primary)
        clock.advance(2.0)                             # window over,
        assert cluster.shard_is_down(primary)          # mark still down
        cluster.set_down(primary, False)
        assert not cluster.shard_is_down(primary)
        assert primary not in cluster._down._affected


def build_layer(layer, traced):
    """A service or a hot cluster with a registry, traced or not."""
    clock = VirtualClock()
    tracer = (RequestTracer(sample=1.0, seed=0, clock=clock)
              if traced else None)
    if layer == "service":
        target = CacheService(LRU(10), InMemoryBackend(), ServiceConfig(),
                              clock=clock, registry=MetricsRegistry(),
                              tracer=tracer)
    else:
        target = hot_cluster(registry=MetricsRegistry(), tracer=tracer,
                             clock=clock)
        # Only the cluster traces, so its own span end is what pins.
        for service in target.shards.values():
            service.tracer = None
    return target, tracer


@pytest.mark.parametrize("layer", ["service", "cluster"])
def test_traced_and_untraced_hits_record_alike(layer):
    untraced, _ = build_layer(layer, traced=False)
    traced, tracer = build_layer(layer, traced=True)
    for target in (untraced, traced):
        outcomes = [target.get("a").outcome for _ in range(3)]
        assert outcomes == [MISS, HIT, HIT]
    assert traced.metrics.snapshot() == untraced.metrics.snapshot()
    assert traced.metrics.latencies() == untraced.metrics.latencies()

    # Each latency is 0 on the virtual clock, so both hits fall in one
    # bucket: the first traced hit's trace id becomes its exemplar and
    # the trace is pinned; the second offers nothing new and (with no
    # tail rule engaged this early) is not kept.
    hits = [span for span in tracer.spans(f"{layer}.get")
            if span.args.get("outcome") == HIT]
    assert len(hits) == 1
    pinned = tracer._pinned.get(hits[0].trace_id)
    assert pinned is not None and pinned.keep == KEEP_EXEMPLAR
    assert "exemplar" in pinned.marks


#: ``(advance, expected _freshness)`` for one copy fetched at 0, with
#: ttl 10 and stale_ttl 5: the ages of
#: ``test_local_reads_share_one_freshness_rule``.
AGES = [(0.0, HIT), (10.0, HIT), (15.0, STALE), (15.5, None)]


@pytest.mark.parametrize("age,state", AGES)
def test_with_a_ttl_get_and_holds_copy_follow_freshness(age, state):
    clock = VirtualClock()
    origin = InMemoryBackend()
    service = CacheService(LRU(2), origin,
                           ServiceConfig(ttl=10.0, stale_ttl=5.0),
                           clock=clock)
    service.get("a")
    clock.advance(age)
    assert service._freshness("a", service._store.get("a")) == state
    assert service.holds_copy("a") is (state is not None)
    # A healthy origin refreshes any copy that is not fresh.
    assert service.get("a").outcome == (HIT if state == HIT else MISS)
    assert origin.fetch_count("a") == (1 if state == HIT else 2)
