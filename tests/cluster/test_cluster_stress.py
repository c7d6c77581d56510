"""Multi-threaded cluster stress: conservation while a shard dies.

The issue's acceptance criterion at fleet scale: 8 threads hammer a
4-shard cluster with overlapping Zipf keys while one shard is taken
down mid-run and brought back, and the cluster-wide invariant
``hit + miss + replica_hit + stale + shed + error == requests`` must
hold exactly -- no lost or double-counted request, no deadlock.
Deadlocks are guarded twice: a `pytest-timeout` marker (enforced in
CI) plus an in-test join deadline.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.policies.lru import LRU
from repro.policies.registry import make
from repro.cluster import CLUSTER_OUTCOMES, ClusterConfig, build_cluster

THREADS = 8
REQUESTS_PER_THREAD = 2000
SHARDS = 4
JOIN_DEADLINE = 60.0


def zipf_slices(rng, num_objects=400, alpha=0.9):
    from repro.traces.synthetic import zipf_trace

    keys = zipf_trace(num_objects, THREADS * REQUESTS_PER_THREAD,
                      alpha, rng).tolist()
    return [[f"k{key}" for key in keys[t::THREADS]]
            for t in range(THREADS)]


def hammer_with_kill(cluster, key_slices, victim="s1"):
    """Drive the slices from worker threads; kill+revive one shard.

    The traffic flips the victim itself: the worker whose get is the
    ``total // 4``-th to finish takes the shard down, and the one whose
    get is the ``3 * total // 4``-th brings it back.  Gets are counted,
    and the flips made, under one lock, so the kill always lands
    mid-traffic and before the revive, however the threads are
    scheduled, and every worker crosses both fault boundaries.
    """
    errors = []
    total = sum(len(s) for s in key_slices)
    counter = threading.Lock()
    done = 0
    killed = revived = False

    def worker(keys):
        nonlocal done, killed, revived
        try:
            for key in keys:
                cluster.get(key)
                with counter:
                    done += 1
                    if done == total // 4:
                        cluster.set_down(victim)
                        killed = True
                    elif done == 3 * total // 4:
                        cluster.set_down(victim, False)
                        revived = True
        except BaseException as exc:
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(s,), daemon=True)
            for s in key_slices]
    for thread in pool:
        thread.start()

    deadline = time.monotonic() + JOIN_DEADLINE
    while any(thread.is_alive() for thread in pool):
        if time.monotonic() > deadline:
            pytest.fail("stress workers still running at the deadline "
                        "-- deadlock or livelock in CacheCluster")
        time.sleep(0.005)
    for thread in pool:
        thread.join(timeout=1.0)
    assert not errors, f"worker raised: {errors[0]!r}"
    assert killed, "the kill never fired -- workload finished too fast?"
    assert revived


@pytest.mark.timeout(120)
class TestClusterStressInvariant:
    def test_kill_one_shard_conservation_with_replication(self, rng):
        cluster = build_cluster(
            lambda: LRU(100), shards=SHARDS,
            config=ClusterConfig(replicas=1, hot_key_threshold=4))
        hammer_with_kill(cluster, zipf_slices(rng))
        cluster.metrics.check_conservation()
        snap = cluster.metrics.snapshot()
        total = THREADS * REQUESTS_PER_THREAD
        assert snap["requests"] == total
        assert sum(snap[outcome] for outcome in CLUSTER_OUTCOMES) == total
        # With a replica per hot key the outage is nearly invisible.
        assert snap["error"] < total * 0.05
        # No shard exceeded its capacity under contention.
        for service in cluster.shards.values():
            assert len(service.policy) <= service.policy.capacity

    def test_kill_one_shard_conservation_without_replication(self, rng):
        """Errors surface honestly but the accounting still balances."""
        cluster = build_cluster(
            lambda: make("QD-LP-FIFO", 100), shards=SHARDS,
            config=ClusterConfig(replicas=0))
        hammer_with_kill(cluster, zipf_slices(rng))
        cluster.metrics.check_conservation()
        snap = cluster.metrics.snapshot()
        total = THREADS * REQUESTS_PER_THREAD
        assert snap["requests"] == total
        assert snap["error"] > 0          # the dead arc really erred

    def test_conservation_with_fast_thread_switching(self, rng):
        """Arrivals and outcomes balance when threads switch mid-get.

        The hit path reads breaker, down-window and ring state without
        locks and records metrics after the shard lock is released; a
        tiny switch interval interleaves those steps across threads.
        """
        cluster = build_cluster(
            lambda: LRU(100), shards=SHARDS,
            config=ClusterConfig(replicas=1, hot_key_threshold=4))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            hammer_with_kill(cluster, zipf_slices(rng))
        finally:
            sys.setswitchinterval(interval)
        cluster.metrics.check_conservation()
        snap = cluster.metrics.snapshot()
        assert snap["arrivals"] == snap["requests"] == \
            THREADS * REQUESTS_PER_THREAD

    def test_front_cache_under_contention(self, rng):
        """The hot-key front cache stays consistent across threads."""
        cluster = build_cluster(
            lambda: LRU(100), shards=SHARDS,
            config=ClusterConfig(replicas=1, hot_key_threshold=4,
                                 front_cache_size=8,
                                 front_cache_ttl=30.0))
        hammer_with_kill(cluster, zipf_slices(rng, alpha=1.2))
        cluster.metrics.check_conservation()
        assert cluster.metrics.snapshot()["front_hits"] > 0
