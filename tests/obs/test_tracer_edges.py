"""CacheTracer edge cases: exact ring fill, bucket boundaries, races."""

import threading

import pytest

from repro.core.qdlpfifo import QDLPFIFO
from repro.obs import ADMIT, EVICT, CacheTracer, MetricsRegistry
from repro.obs.metrics import DEFAULT_AGE_BUCKETS
from repro.policies.fifo import FIFO

from tests.conftest import drive


class TestRingWraparound:
    def test_exactly_ring_events_all_retained(self):
        tracer = CacheTracer(ring=8)
        for i in range(8):
            tracer.on_admit(i)
        events = tracer.events(ADMIT)
        assert len(events) == 8
        assert [ev.key for ev in events] == list(range(8))
        assert tracer.counts[ADMIT] == 8

    def test_one_past_ring_drops_exactly_the_oldest(self):
        tracer = CacheTracer(ring=8)
        for i in range(9):
            tracer.on_admit(i)
        events = tracer.events(ADMIT)
        assert len(events) == 8
        assert [ev.key for ev in events] == list(range(1, 9))
        assert tracer.counts[ADMIT] == 9     # totals stay exact

    def test_rings_are_per_stream(self):
        """Filling one stream to maxlen must not evict another's events."""
        tracer = CacheTracer(ring=4)
        tracer.on_admit("keeper")
        for i in range(16):
            tracer.on_admit(i)
            tracer.on_evict(i)
        assert len(tracer.events(EVICT)) == 4
        assert len(tracer.events(ADMIT)) == 4
        assert tracer.counts[ADMIT] == 17


class TestAgeBucketBoundaries:
    def _evict_at_age(self, tracer, key, age):
        """Admit *key*, advance the clock by *age* hits, evict it."""
        tracer.on_admit(key)
        for _ in range(age):
            tracer.on_hit(("filler", key))   # never admitted: clock only
        tracer.on_evict(key)

    def _bucket_counts(self, registry):
        [row] = [r for r in registry.snapshot()
                 if r["labels"].get("tenure") == "zero-hit"]
        return dict((bound, count) for bound, count in row["buckets"])

    def test_age_on_bound_lands_in_that_bucket(self):
        """Bounds are inclusive upper edges: age == bound counts below."""
        registry = MetricsRegistry()
        tracer = CacheTracer(registry=registry)
        first_bound = DEFAULT_AGE_BUCKETS[0]         # 10 requests
        self._evict_at_age(tracer, "on-edge", first_bound)
        buckets = self._bucket_counts(registry)
        assert buckets[float(first_bound)] == 1

    def test_age_just_past_bound_lands_in_next_bucket(self):
        registry = MetricsRegistry()
        tracer = CacheTracer(registry=registry)
        first, second = DEFAULT_AGE_BUCKETS[:2]      # 10, 40
        self._evict_at_age(tracer, "past-edge", first + 1)
        buckets = self._bucket_counts(registry)
        assert buckets[float(first)] == 0
        assert buckets[float(second)] == 1           # cumulative export

    def test_zero_age_eviction_counts_in_first_bucket(self):
        """Admit-then-immediately-evict: age 0 must not be lost."""
        registry = MetricsRegistry()
        tracer = CacheTracer(registry=registry)
        self._evict_at_age(tracer, "instant", 0)
        buckets = self._bucket_counts(registry)
        assert buckets[float(DEFAULT_AGE_BUCKETS[0])] == 1
        assert tracer.eviction_ages(zero_hit_only=True) == [0]

    def test_age_beyond_last_bound_only_in_inf(self):
        registry = MetricsRegistry()
        tracer = CacheTracer(registry=registry)
        last = DEFAULT_AGE_BUCKETS[-1]
        self._evict_at_age(tracer, "ancient", last + 1)
        [row] = [r for r in registry.snapshot()
                 if r["labels"].get("tenure") == "zero-hit"]
        assert all(count == 0 for _, count in row["buckets"])
        assert row["count"] == 1                     # +Inf catches it
        assert row["sum"] == pytest.approx(last + 1)


class TestConcurrentRegistration:
    def test_two_threads_register_listeners_without_loss(self):
        """Concurrent add_listener from two threads must not drop any."""
        policy = FIFO(8)
        per_thread = 50
        tracers = {side: [CacheTracer() for _ in range(per_thread)]
                   for side in ("a", "b")}
        barrier = threading.Barrier(2)

        def register(side):
            barrier.wait()
            for tracer in tracers[side]:
                policy.add_listener(tracer)

        threads = [threading.Thread(target=register, args=(side,))
                   for side in tracers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(policy._listeners) == 2 * per_thread
        assert set(policy._listeners) == \
            set(tracers["a"]) | set(tracers["b"])
        # Every registered tracer observes the same stream afterwards.
        drive(policy, [1, 2, 3, 1])
        counts = {t.counts[ADMIT] for side in tracers
                  for t in tracers[side]}
        assert counts == {3}

    def test_qd_wrapper_attaches_one_forwarder_under_concurrency(self):
        """Threads adding and removing listeners on a QD wrapper leave
        its main cache with one eviction forwarder while any listener
        remains, and with none after the last one goes."""
        policy = QDLPFIFO(10)
        kept = CacheTracer()
        barrier = threading.Barrier(2)

        def churn():
            barrier.wait()
            for _ in range(50):
                batch = [CacheTracer() for _ in range(4)]
                for tracer in batch:
                    policy.add_listener(tracer)
                for tracer in batch:
                    policy.remove_listener(tracer)

        threads = [threading.Thread(target=churn) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert policy.main._listeners == []

        policy.add_listener(kept)
        assert len(policy.main._listeners) == 1
        # Each key hits once in probation, so it graduates and is later
        # evicted by the main CLOCK, through the forwarder.
        drive(policy, [key for key in range(40) for _ in range(2)])
        assert kept.counts[EVICT] == 30      # each eviction seen once
        policy.remove_listener(kept)
        assert policy.main._listeners == []
