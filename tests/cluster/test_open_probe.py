"""The cluster open loop charges each request the promotions it caused.

``run_open_cluster_load`` reads a promotions probe after every
dispatched get.  Only the shard that served the get (its primary, or
the replica it failed over to) and the replicas it pushed a hot value
to can have promoted, so the probe re-reads just those shards.  A
4-shard LRU cluster with hot-key replication, a front cache and a kill
window that forces failover must give, dispatch by dispatch, the same
readings as a reference probe that sums every shard after every get.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.cluster import loadgen
from repro.cluster.loadgen import run_open_cluster_load
from repro.exec.clock import VirtualClock
from repro.policies import LRU
from repro.service.overload import (
    AdmissionQueue,
    AIMDLimiter,
    AimdConfig,
    PoissonArrivals,
    ServiceCostModel,
    run_open_loop,
)
from repro.traces.synthetic import zipf_trace

SHARDS = 4
KILLED = "s1"
KEYS = zipf_trace(120, 2000, 0.9, np.random.default_rng(7)).tolist()
SCHEDULE = PoissonArrivals(rate=500.0, duration=4.0, seed=3)


class CountedLRU(LRU):
    """An LRU that counts the reads of its promotion count."""

    def __init__(self, capacity, tally):
        super().__init__(capacity)
        self._tally = tally

    @property
    def promotion_count(self):
        self._tally[0] += 1
        return super().promotion_count


def scenario(tally):
    cluster = build_cluster(
        lambda: CountedLRU(12, tally), shards=SHARDS,
        config=ClusterConfig(hot_key_threshold=2, front_cache_size=4,
                             front_cache_ttl=0.05),
        clock=VirtualClock())
    cluster.kill(KILLED, 1.0, 2.5)
    return cluster


def front_end():
    return dict(queue=AdmissionQueue(64, "drop-oldest", deadline=0.2),
                limiter=AIMDLimiter(AimdConfig(target_delay=0.02,
                                               max_limit=8)),
                cost=ServiceCostModel(promotion_cost=0.001))


def reference_run():
    """``(report, readings)`` with a probe summing every shard."""
    cluster = scenario([0])
    readings = []

    def probe():
        readings.append(sum(service.policy.promotion_count
                            for service in cluster.shards.values()))
        return readings[-1]

    report = run_open_loop(cluster.get, SCHEDULE.times(), KEYS,
                           cluster.clock, promotions_probe=probe,
                           **front_end())
    return report, readings


def probed_run(monkeypatch, cluster):
    """``(report, readings)`` from ``run_open_cluster_load``'s probe."""
    readings = []

    def spy(**kwargs):
        probe = kwargs["promotions_probe"]

        def recorded():
            readings.append(probe())
            return readings[-1]

        kwargs["promotions_probe"] = recorded
        return run_open_loop(**kwargs)

    monkeypatch.setattr(loadgen, "run_open_loop", spy)
    report = run_open_cluster_load(cluster, KEYS, SCHEDULE, **front_end())
    return report, readings


@pytest.fixture(scope="module")
def reference():
    return reference_run()


def test_probe_matches_a_probe_of_every_shard(monkeypatch, reference):
    expected, expected_readings = reference
    tally = [0]
    cluster = scenario(tally)
    served = []
    inner = cluster.get

    def get(key):
        served.append(inner(key))
        return served[-1]

    cluster.get = get
    report, readings = probed_run(monkeypatch, cluster)
    assert readings == expected_readings
    assert report == expected
    assert report.promotions > 0
    # The run exercises what the probe must follow: replica pushes, the
    # front cache, and gets a replica served for the killed primary.
    snap = cluster.metrics.snapshot()
    assert snap["replications"] > 0
    assert snap["front_hits"] > 0
    assert any(result.outcome in ("hit", "miss")
               and result.shard != KILLED
               and cluster.ring.owners(result.key, 1)[0] == KILLED
               for result in served)
    # An opening read of every shard; then per dispatch one read of the
    # shard that served (none for a front-cache hit) and one per push.
    dispatched = snap["requests"]
    assert dispatched == len(readings) - 1
    assert tally[0] == (SHARDS + dispatched - snap["front_hits"]
                        + snap["replications"])
    assert tally[0] <= SHARDS + 2 * dispatched


def test_a_probe_blind_to_replica_pushes_is_caught(monkeypatch, reference):
    """Hiding the pushes from the probe changes its readings: replica
    writes promote, so the scenario tells the two probes apart."""
    _, expected_readings = reference
    cluster = scenario([0])
    inner = cluster.get
    cluster.get = lambda key: dataclasses.replace(inner(key),
                                                  replicated_to=())
    _, readings = probed_run(monkeypatch, cluster)
    assert readings != expected_readings
