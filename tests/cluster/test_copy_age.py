"""A copy keeps its age wherever the cluster puts it.

A value's freshness is measured from when it was fetched.  The cluster
copies values three ways -- a hot key's value pushed to its replicas,
a value admitted into the front cache, and an entry migrated to its new
owner when the ring changes -- and none of them may make an old copy
young: a pushed or migrated copy carries its original ``fetched_at``,
a front-cache copy is served no longer than its original's TTL, and a
``stale`` result is copied nowhere.
"""

from __future__ import annotations

import threading
import time

from repro.cluster.cluster import (
    REPLICA_HIT,
    ClusterConfig,
    build_cluster,
)
from repro.exec.clock import VirtualClock
from repro.policies.lru import LRU
from repro.service.backend import Backend, InMemoryBackend
from repro.service.service import (
    HIT,
    MISS,
    STALE,
    CacheService,
    ServiceConfig,
)

TTL = 1.0
STALE_TTL = 10.0

#: hard real-time cap on the coalescing rendezvous
DEADLINE = 30.0


def service_config():
    return ServiceConfig(ttl=TTL, stale_ttl=STALE_TTL)


def aged_cluster(clock, shards=4, front_cache_size=0):
    """A key is hot from its second request; one replica per key."""
    return build_cluster(
        lambda: LRU(50), shards=shards,
        config=ClusterConfig(replicas=1, hot_key_threshold=2,
                             front_cache_size=front_cache_size),
        service_config=service_config(), clock=clock)


class TestResultsCarryTheirAge:
    def test_hit_miss_stale_and_peek(self):
        clock = VirtualClock()
        service = CacheService(LRU(4), InMemoryBackend(), service_config(),
                               clock=clock)
        clock.advance(2.0)
        assert service.get("a").fetched_at == 2.0          # miss
        clock.advance(0.5)
        hit = service.get("a")
        assert (hit.outcome, hit.fetched_at) == (HIT, 2.0)
        assert service.peek("a").fetched_at == 2.0
        clock.advance(1.0)                                 # past the TTL
        peeked = service.peek("a")
        assert (peeked.outcome, peeked.fetched_at) == (STALE, 2.0)
        assert service.get("b").fetched_at == 3.5          # a later miss

    def test_put_keeps_the_given_fetch_time(self):
        clock = VirtualClock()
        service = CacheService(LRU(4), InMemoryBackend(), service_config(),
                               clock=clock)
        clock.advance(5.0)
        service.put("old", "v", fetched_at=3.5)
        service.put("new", "v")
        assert service.peek("old").outcome == STALE         # age 1.5
        assert service.peek("new").fetched_at == 5.0

    def test_a_follower_gets_the_leaders_fetch_time(self):
        class Gate(Backend):
            def __init__(self):
                self.entered = threading.Event()
                self.open = threading.Event()

            def fetch(self, key):
                self.entered.set()
                assert self.open.wait(DEADLINE)
                return f"value:{key}"

        clock = VirtualClock()
        backend = Gate()
        service = CacheService(LRU(4), backend, service_config(),
                               clock=clock)
        results = {}

        def get(role):
            results[role] = service.get("k")

        leader = threading.Thread(target=get, args=("leader",), daemon=True)
        leader.start()
        assert backend.entered.wait(DEADLINE)
        flight = service._flights["k"]
        follower = threading.Thread(target=get, args=("follower",),
                                    daemon=True)
        follower.start()
        deadline = time.monotonic() + DEADLINE
        while flight.waiters < 1:
            assert time.monotonic() < deadline, "follower never latched on"
            time.sleep(0)
        clock.advance(0.25)
        backend.open.set()
        leader.join(DEADLINE)
        follower.join(DEADLINE)
        assert results["follower"].coalesced
        assert (results["leader"].fetched_at
                == results["follower"].fetched_at == 0.25)


class TestClusterCopies:
    def test_a_replica_copy_expires_with_its_original(self):
        clock = VirtualClock()
        cluster = aged_cluster(clock)
        key = "k"
        primary, replica = cluster.ring.owners(key, 2)
        assert cluster.get(key).outcome == MISS        # t=0, not hot yet
        clock.advance(0.9)
        pushed = cluster.get(key)                      # hot: pushed
        assert (pushed.outcome, pushed.replicated_to) == (HIT, (replica,))
        cluster.kill(primary, 1.5, 100.0)
        clock.advance(0.6)                             # t=1.5, age 1.5
        served = cluster.get(key)
        assert (served.outcome, served.shard) == (STALE, replica)
        assert cluster.shards[replica].peek(key).fetched_at == 0.0
        clock.advance(1.0)
        assert cluster.get(key).outcome == STALE       # t=2.5, age 2.5

    def test_a_fresh_copy_still_serves_as_a_replica_hit(self):
        clock = VirtualClock()
        cluster = aged_cluster(clock)
        key = "k"
        primary, replica = cluster.ring.owners(key, 2)
        cluster.get(key)
        clock.advance(0.5)
        cluster.get(key)                               # pushed at t=0.5
        cluster.kill(primary, 0.75, 100.0)
        clock.advance(0.25)                            # age 0.75
        served = cluster.get(key)
        assert (served.outcome, served.shard) == (REPLICA_HIT, replica)

    def test_a_stale_result_goes_to_no_replica_or_front_cache(self):
        clock = VirtualClock()
        cluster = aged_cluster(clock, front_cache_size=4)
        key = "k"
        primary, replica = cluster.ring.owners(key, 2)
        assert cluster.get(key).outcome == MISS        # t=0, not hot yet
        clock.advance(2.0)
        cluster.plans[primary].outage(2.0, 100.0)      # origin down
        stale = cluster.get(key)                       # hot, served stale
        assert (stale.outcome, stale.replicated_to) == (STALE, ())
        assert not cluster.shards[replica].holds_copy(key)
        assert len(cluster.front_cache) == 0
        clock.advance(1.0)                             # t=3
        again = cluster.get(key)
        assert (again.outcome, again.front, again.shard) == (STALE, False,
                                                             primary)
        snap = cluster.metrics.snapshot()
        assert (snap["front_hits"], snap["replications"]) == (0, 0)

    def test_a_front_cache_copy_expires_with_its_original(self):
        """Admitted at t=0.9, a copy fetched at t=0 is served from the
        front cache until t=1 (its TTL), not until t=1.9 (the front
        cache's own TTL after admission)."""
        clock = VirtualClock()
        cluster = aged_cluster(clock, front_cache_size=4)
        key = "k"
        primary = cluster.ring.primary(key)
        assert cluster.get(key).outcome == MISS        # t=0, not hot yet
        clock.advance(0.9)
        assert cluster.get(key).outcome == HIT         # hot: admitted
        assert cluster.config.front_cache_ttl == TTL
        clock.advance(0.05)                            # t=0.95
        front = cluster.get(key)
        assert (front.outcome, front.front) == (HIT, True)
        clock.advance(0.85)                            # t=1.8, age 1.8
        again = cluster.get(key)
        assert (again.outcome, again.front, again.shard) == (MISS, False,
                                                             primary)
        assert cluster.metrics.snapshot()["front_hits"] == 1

    def test_a_migrated_copy_keeps_its_age(self):
        clock = VirtualClock()
        cluster = aged_cluster(clock, shards=2)
        keys = [f"key-{index}" for index in range(60)]
        for key in keys:
            assert cluster.get(key).outcome == MISS    # t=0, none hot
        clock.advance(0.8)
        report = cluster.add_shard(
            "s2", CacheService(LRU(50), InMemoryBackend(), service_config(),
                               clock=clock))
        moved = [key for key in keys if cluster.ring.primary(key) == "s2"]
        assert moved and report.migrated == len(moved)
        clock.advance(0.7)                             # t=1.5, age 1.5
        copies = [cluster.shards["s2"].peek(key) for key in moved]
        assert {copy.outcome for copy in copies} == {STALE}
        assert {copy.fetched_at for copy in copies} == {0.0}
        assert {cluster.get(key).outcome for key in moved} == {MISS}
