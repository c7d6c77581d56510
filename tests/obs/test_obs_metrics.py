"""MetricsRegistry: identity, thread-safety surface, snapshots, merge."""

import random
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    exponential_buckets,
    merge_snapshots,
)
from repro.obs.metrics import Reservoir


class TestRegistryIdentity:
    def test_same_name_labels_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("requests_total", outcome="hit")
        b = reg.counter("requests_total", outcome="hit")
        assert a is b

    def test_different_labels_different_series(self):
        reg = MetricsRegistry()
        hit = reg.counter("requests_total", outcome="hit")
        miss = reg.counter("requests_total", outcome="miss")
        assert hit is not miss
        hit.inc(3)
        miss.inc()
        assert hit.value == 3
        assert miss.value == 1

    def test_one_type_per_name(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(TypeError):
            reg.gauge("x_total")
        with pytest.raises(TypeError):
            reg.gauge("x_total", policy="LRU")

    def test_invalid_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")

    def test_counter_negative_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x_total").inc(-1)


class TestHistogram:
    def test_observe_and_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "", (1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(105.0)
        assert [c for _, c in h.cumulative()] == [1, 2, 3, 4]

    def test_quantile_clamps_overflow(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "", (1.0, 2.0))
        h.observe(50.0)
        # The overflow bucket has no finite bound; the estimate clamps.
        assert h.quantile(0.99) == 2.0

    def test_exponential_buckets(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    def test_value_on_a_bound_lands_in_that_bucket(self):
        h = MetricsRegistry().histogram("lat", "", (1.0, 2.0, 4.0))
        h.observe(2.0)
        assert [c for _, c in h.cumulative()] == [0, 1, 1, 1]

    def test_value_above_the_last_bound_lands_in_inf(self):
        h = MetricsRegistry().histogram("lat", "", (1.0, 2.0, 4.0))
        assert h.observe(4.5, exemplar="t1")
        assert [c for _, c in h.cumulative()] == [0, 0, 0, 1]
        assert h.row()["exemplars"] == [["+Inf", "t1", 4.5]]


class TestReservoir:
    def test_sample_matches_algorithm_r_over_randrange(self):
        """The same draws as Vitter's Algorithm R on ``randrange``."""
        size, seed = 16, 7
        reservoir = Reservoir(size, seed=seed)
        rng = random.Random(seed)
        expected = []
        for count, value in enumerate(range(1000), start=1):
            reservoir.add(float(value))
            if count <= size:
                expected.append(float(value))
                continue
            slot = rng.randrange(count)
            if slot < size:
                expected[slot] = float(value)
        assert reservoir.values() == expected
        assert reservoir.count == 1000 and len(reservoir) == size

    def test_add_reports_whether_the_sample_changed(self):
        reservoir = Reservoir(16, seed=3)
        stores = 0
        for value in range(2000):
            before = reservoir.values()
            stored = reservoir.add(float(value))
            assert stored == (reservoir.values() != before)
            stores += stored
        assert 16 < stores < 2000


class TestSnapshot:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "help", policy="LRU").inc(7)
        reg.gauge("g").set(2.5)
        reg.histogram("h", "", (1.0, 10.0)).observe(3.0)
        return reg

    def test_snapshot_rows_cover_every_metric(self):
        rows = self._populated().snapshot()
        assert {row["type"] for row in rows} == {
            "counter", "gauge", "histogram"}
        counter = next(r for r in rows if r["type"] == "counter")
        assert counter["name"] == "c_total"
        assert counter["labels"] == {"policy": "LRU"}
        assert counter["value"] == 7

    def test_histogram_row_buckets_cumulative(self):
        rows = self._populated().snapshot()
        hist = next(r for r in rows if r["type"] == "histogram")
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(3.0)
        # [le, cumulative-count] pairs over the finite bounds; the +Inf
        # bucket is implied by "count" (Prometheus exposition adds it).
        assert [le for le, _ in hist["buckets"]] == [1.0, 10.0]
        assert [c for _, c in hist["buckets"]] == [0, 1]

    def test_counter_values_flat_view(self):
        vals = self._populated().counter_values()
        assert vals == {"c_total{policy=LRU}": 7}

    def test_merge_snapshots_sums_counters_and_buckets(self):
        a, b = self._populated(), self._populated()
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        counter = next(r for r in merged if r["type"] == "counter")
        assert counter["value"] == 14
        hist = next(r for r in merged if r["type"] == "histogram")
        assert hist["count"] == 2
        assert [c for _, c in hist["buckets"]] == [0, 2]


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self):
        reg = MetricsRegistry()
        counter = reg.counter("n_total")
        hist = reg.histogram("h", "", (10.0,))

        def worker():
            for _ in range(2000):
                counter.inc()
                hist.observe(1.0)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 16000
        assert hist.count == 16000
