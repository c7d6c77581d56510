"""Each lock a request takes, counted per request on runs shaped like the
serving benchmarks.

Every lock a cluster request can take counts its acquisitions: the
hot-key tracker's, the cluster ledger's, each shard's service and
ledger locks, every lock of each shard's backend (the wrapper and
whatever it wraps), the virtual clock's and the AIMD limiter's.  Each
is a :class:`tests.conftest.SoloLock`, swapped in after construction,
which also fails a section that kept its lock instead of hanging.  A
seeded single-threaded closed loop shaped like perfbench's
``serve-hot`` and a seeded open loop shaped like ``serve-churn`` then
hold each count to what the run's own outcomes say it must be:

* the tracker and the cluster ledger once per get, and the ledger once
  more per get that pushed copies to replicas;
* a shard's service lock once per hit, twice per miss (route, then
  admit and release) and once per copy pushed into it;
* a shard's ledger once per get it served;
* a shard's backend once per miss: a fetch is counted in one place;
* the limiter once per completion, and the clock once per event that
  moves it.

A threaded stress run then sends hits, misses, replica pushes, clock
advances and limiter updates through every one of those sections at
once, under a 10 us switch interval, and checks that the counts still
balance and that every lock is free once the threads are joined.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.cluster.cluster import ClusterConfig, build_cluster
from repro.cluster.loadgen import run_open_cluster_load
from repro.exec.clock import VirtualClock
from repro.obs.metrics import MetricsRegistry
from repro.policies.registry import make
from repro.service.backend import FaultInjectedBackend, InMemoryBackend
from repro.service.faults import BackendFaultPlan
from repro.service.overload import (
    AdmissionQueue,
    AIMDLimiter,
    AimdConfig,
    ServiceCostModel,
    StepArrivals,
)
from repro.service.service import HIT, MISS, ServiceConfig
from repro.traces.synthetic import zipf_trace
from tests.conftest import SoloLock

SHARDS = 4


def backend_chain(backend):
    """*backend* and every backend it wraps, outermost first."""
    while backend is not None:
        yield backend
        backend = getattr(backend, "inner", None)


def count_locks(cluster, clock, limiter=None):
    """Swap a counting lock into every lock a request can take; returns
    name -> tally (a shard's backends share one tally)."""
    tallies = {}

    def swap(name, owner):
        tally = tallies.setdefault(name, [0])
        owner._lock = SoloLock(tally)

    swap("tracker", cluster.hot_tracker)
    swap("cluster ledger", cluster.metrics)
    swap("clock", clock)
    if limiter is not None:
        swap("limiter", limiter)
    for name, service in cluster.shards.items():
        swap(f"{name} service", service)
        swap(f"{name} ledger", service.metrics)
        tallies[f"{name} backend"] = [0]
        for backend in backend_chain(service.backend):
            if hasattr(backend, "_lock"):
                swap(f"{name} backend", backend)
    return tallies


def expected_counts(results, clock_advances, completions=None):
    """What each lock must have counted for these cluster results."""
    expected = {f"s{index} {lock}": 0 for index in range(SHARDS)
                for lock in ("service", "ledger", "backend")}
    expected["tracker"] = len(results)
    expected["cluster ledger"] = len(results) + sum(
        1 for result in results if result.replicated_to)
    expected["clock"] = clock_advances
    if completions is not None:
        expected["limiter"] = completions
    for result in results:
        assert result.outcome in (HIT, MISS)
        shard = result.shard
        expected[f"{shard} ledger"] += 1
        if result.outcome == HIT:
            expected[f"{shard} service"] += 1
        else:
            expected[f"{shard} service"] += 2
            expected[f"{shard} backend"] += 1
        for replica in result.replicated_to:
            expected[f"{replica} service"] += 1
    return expected


def evictions(cluster):
    """Evictions so far: every policy miss admits one object."""
    return sum(service.policy.stats.misses - len(service.policy)
               for service in cluster.shards.values())


def counted(tallies):
    return {name: tally[0] for name, tally in tallies.items()}


def warm(cluster, keys, tallies):
    """Serve *keys*, then start every tally from zero."""
    for key in keys:
        cluster.get(key)
    for tally in tallies.values():
        tally[0] = 0


def recording(cluster, results):
    """Make ``cluster.get`` keep every result it returns."""
    inner = cluster.get

    def get(key, **kwargs):
        result = inner(key, **kwargs)
        results.append(result)
        return result

    cluster.get = get


def test_a_hot_closed_loop_takes_each_lock_as_its_outcomes_say():
    keys = zipf_trace(20_000, 12_000, 1.2,
                      np.random.default_rng(42)).tolist()
    clock = VirtualClock()
    cluster = build_cluster(lambda: make("LRU", 500), shards=SHARDS,
                            clock=clock, registry=MetricsRegistry())
    tallies = count_locks(cluster, clock)
    warm(cluster, keys[:4_000], tallies)
    evicted = evictions(cluster)
    results = [cluster.get(key) for key in keys[4_000:]]

    outcomes = Counter(result.outcome for result in results)
    assert outcomes[HIT] > 6 * outcomes[MISS]         # a hot run
    assert evictions(cluster) > evicted               # that evicts
    assert any(result.replicated_to for result in results)
    taken = counted(tallies)
    assert taken == expected_counts(results, clock_advances=0)
    # A miss counts its fetch once.
    assert sum(taken[f"s{index} backend"]
               for index in range(SHARDS)) == outcomes[MISS]


def test_a_churning_open_loop_takes_each_lock_as_its_outcomes_say():
    keys = zipf_trace(200_000, 22_000, 0.6,
                      np.random.default_rng(42)).tolist()
    clock = VirtualClock()
    cluster = build_cluster(lambda: make("QD-LP-FIFO", 500), shards=SHARDS,
                            clock=clock)
    queue = AdmissionQueue(capacity=128, policy="drop-oldest",
                           deadline=0.5)
    limiter = AIMDLimiter(AimdConfig(target_delay=0.05, max_limit=16))
    tallies = count_locks(cluster, clock, limiter)
    warm(cluster, keys[:3_000], tallies)
    results = []
    recording(cluster, results)
    advances = [0]
    sleep_until = clock.sleep_until

    def counted_sleep_until(deadline):
        advances[0] += deadline > clock.now()
        sleep_until(deadline)

    clock.sleep_until = counted_sleep_until
    schedule = StepArrivals(rate=2_000.0, duration=2.0, peak_rate=6_000.0,
                            seed=42)
    report = run_open_cluster_load(cluster, keys[3_000:], schedule,
                                   queue=queue, limiter=limiter,
                                   cost=ServiceCostModel())

    report.check_conservation()
    assert report.outcomes.get("dropped", 0) > 0      # the step overloads
    assert len(results) == report.served
    assert advances[0] > len(results)
    taken = counted(tallies)
    assert taken == expected_counts(results, advances[0],
                                    completions=len(results))
    misses = sum(1 for result in results if result.outcome == MISS)
    assert misses > 0.9 * len(results)
    assert sum(taken[f"s{index} backend"]
               for index in range(SHARDS)) == misses


# ----------------------------------------------------------------------
# Every section under threads
# ----------------------------------------------------------------------

THREADS = 8
GETS_PER_THREAD = 4_000
#: seconds all workers together may take to finish
JOIN_TIMEOUT = 30.0


def request_locks(cluster, clock):
    """Every lock a request can take, by name."""
    locks = {"tracker": cluster.hot_tracker._lock,
             "cluster ledger": cluster.metrics._lock,
             "clock": clock._lock}
    for name, service in cluster.shards.items():
        locks[f"{name} service"] = service._lock
        locks[f"{name} ledger"] = service.metrics._lock
        locks[f"{name} limiter"] = service.limiter._lock
        for depth, backend in enumerate(backend_chain(service.backend)):
            locks[f"{name} backend {depth}"] = backend._lock
    return locks


@pytest.mark.timeout(120)
def test_every_section_under_threads_conserves_and_lets_go():
    clock = VirtualClock()
    origins = {}

    def backend(name):
        origins[name] = InMemoryBackend()
        return FaultInjectedBackend(origins[name], BackendFaultPlan(), clock)

    # A TTL the workers' clock advances run out, and a limiter every
    # fetch reports to.
    config = ServiceConfig(ttl=0.5, limiter=AimdConfig(max_limit=16,
                                                       interval=0.1))
    cluster = build_cluster(
        lambda: make("LRU", 32), shards=SHARDS,
        config=ClusterConfig(replicas=2, hot_key_threshold=2),
        service_config=config, clock=clock, registry=MetricsRegistry(),
        backend_factory=backend)
    keys = zipf_trace(400, THREADS * GETS_PER_THREAD, 0.9,
                      np.random.default_rng(42)).tolist()
    errors = []

    def worker(mine):
        try:
            for index, key in enumerate(mine):
                cluster.get(key)
                if index % 16 == 0:
                    clock.sleep_until(clock.now() + 0.01)
        except BaseException as exc:   # reported below
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(keys[t::THREADS],),
                             daemon=True) for t in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in pool:
            thread.start()
        deadline = time.monotonic() + JOIN_TIMEOUT
        for thread in pool:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert [thread.is_alive() for thread in pool] == [False] * THREADS
    assert errors == []

    cluster.metrics.check_conservation()
    snap = cluster.metrics.snapshot()
    assert snap["requests"] == len(keys)
    assert snap["replications"] > 0
    shard_requests = 0
    for name, service in cluster.shards.items():
        shard = service.metrics.snapshot()
        shard_requests += shard["requests"]
        # Every miss is a fetch of its own or a ride on another's, and
        # both backends counted every fetch.
        assert shard["miss"] == shard["fetch_attempts"] + shard["coalesced"]
        fetched = set(keys)
        assert sum(service.backend.calls(key) for key in fetched) == \
            shard["fetch_attempts"]
        assert sum(origins[name].fetch_count(key) for key in fetched) == \
            shard["fetch_attempts"]
        assert len(service.policy) <= service.policy.capacity
    assert shard_requests == snap["requests"]
    assert clock.now() > config.ttl
    held = {name: lock.locked()
            for name, lock in request_locks(cluster, clock).items()}
    assert held == dict.fromkeys(held, False)
