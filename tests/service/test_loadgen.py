"""The closed-loop load harness (deterministic paths + real threads)."""

from __future__ import annotations

import pytest

from repro.exec.clock import VirtualClock
from repro.obs import MetricsRegistry, TimeSeriesRecorder
from repro.obs.metrics import percentile
from repro.policies.lru import LRU
from repro.service.backend import FaultInjectedBackend, InMemoryBackend
from repro.service.faults import BackendFaultPlan
from repro.service.loadgen import LoadInterrupted, run_load
from repro.service.service import CacheService, ServiceConfig


def virtual_service(plan=None, config=None, capacity=50):
    clock = VirtualClock()
    origin = InMemoryBackend()
    backend = (FaultInjectedBackend(origin, plan, clock)
               if plan is not None else origin)
    return CacheService(LRU(capacity), backend,
                        config or ServiceConfig(), clock=clock)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_nearest_rank(self):
        values = list(range(1, 101))       # 1..100
        assert percentile(values, 0.0) == 1
        assert percentile(values, 1.0) == 100
        # ceil-based nearest rank: ceil(0.5 * 100) = rank 50 -> value 50
        assert percentile(values, 0.5) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 0.991) == 100

    def test_even_length_p50_is_lower_middle(self):
        # The old round()-based rank used banker's rounding, so p50 of
        # an even-length list picked whichever middle the tie rounded
        # to.  Ceil-based nearest rank always takes the lower middle.
        assert percentile([1.0, 2.0], 0.5) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0.5) == 3.0

    def test_odd_length_p50_is_middle(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0

    def test_single_value_every_fraction(self):
        for fraction in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert percentile([7.0], fraction) == 7.0

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 1.0) == 5.0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)


class TestRunLoadValidation:
    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError, match="threads"):
            run_load(virtual_service(), [1], threads=0)

    def test_rejects_negative_tick(self):
        with pytest.raises(ValueError, match="tick"):
            run_load(virtual_service(), [1], tick=-0.1)

    def test_tick_requires_single_thread(self):
        with pytest.raises(ValueError, match="threads=1"):
            run_load(virtual_service(), [1], threads=2, tick=0.1)

    def test_tick_requires_virtual_clock(self):
        service = CacheService(LRU(4), InMemoryBackend())
        with pytest.raises(ValueError, match="VirtualClock"):
            run_load(service, [1], tick=0.1)


class TestDeterministicRun:
    def test_counts_and_invariant(self):
        service = virtual_service()
        keys = [0, 1, 0, 1, 2, 0]
        report = run_load(service, keys, threads=1, tick=0.01)
        report.check_accounting()
        assert report.requests == 6
        assert report.outcomes["miss"] == 3
        assert report.outcomes["hit"] == 3
        assert report.availability == 1.0
        assert report.threads == 1
        assert not report.interrupted

    def test_latency_percentiles_reflect_injected_latency(self):
        plan = BackendFaultPlan().base_latency(0.004)
        service = virtual_service(plan)
        report = run_load(service, [1, 2, 3, 4, 1, 2, 3, 4], threads=1)
        # 4 misses at 4ms (virtual), 4 hits at 0ms.
        assert report.latency_p99 == pytest.approx(0.004)
        assert report.latency_p50 in (0.0, pytest.approx(0.004))

    def test_render_mentions_every_outcome(self):
        report = run_load(virtual_service(), [1, 1, 2], threads=1)
        text = report.render()
        for token in ("hit=", "miss=", "stale=", "shed=", "error=",
                      "availability", "p99"):
            assert token in text

    def test_accounting_error_raises(self):
        report = run_load(virtual_service(), [1, 2], threads=1)
        report.requests += 1  # corrupt it
        with pytest.raises(AssertionError, match="accounting"):
            report.check_accounting()

    def test_breaker_transitions_surface_in_report(self):
        plan = BackendFaultPlan()
        for key in range(10):
            plan.fail(key)
        service = virtual_service(plan)
        report = run_load(service, list(range(10)), threads=1)
        assert any(dst == "open" for _, _, dst in report.breaker_transitions)
        assert "breaker" in report.render()


class TestThreadedRun:
    def test_multi_threaded_counts_add_up(self):
        service = CacheService(LRU(20), InMemoryBackend(), ServiceConfig())
        keys = [k % 30 for k in range(2000)]
        report = run_load(service, keys, threads=4)
        report.check_accounting()
        assert report.requests == 2000
        assert report.outcomes["error"] == 0
        assert report.throughput > 0


class TestInterrupt:
    def test_partial_report_attached_on_interrupt(self):
        service = virtual_service()
        calls = {"n": 0}
        real_get = service.get

        def get_then_interrupt(key):
            calls["n"] += 1
            if calls["n"] > 5:
                raise KeyboardInterrupt
            return real_get(key)

        service.get = get_then_interrupt
        with pytest.raises(LoadInterrupted) as excinfo:
            run_load(service, list(range(100)), threads=1)
        report = excinfo.value.report
        assert report.interrupted
        assert report.requests == 5           # what completed before ^C
        report.check_accounting()


class TestTimeseriesSampling:
    def test_clock_cadence_windows_cover_all_requests(self):
        registry = MetricsRegistry()
        clock = VirtualClock()
        service = CacheService(LRU(50), InMemoryBackend(),
                               ServiceConfig(), clock=clock,
                               registry=registry)
        recorder = TimeSeriesRecorder(registry, cadence=2.0)
        keys = [0, 1, 2] * 4                  # 3 misses, then hits
        run_load(service, keys, threads=1, tick=0.5,
                 timeseries=recorder)
        assert recorder.samples >= 2          # 6.0s of clock, 2s cadence
        recorder.sample(clock.now())          # tail window
        totals = {}
        for name in recorder.series_names():
            if name.startswith("service_requests_total"):
                totals[name] = sum(v for _, _, v in recorder.series(name))
        assert sum(totals.values()) == len(keys)
        assert totals["service_requests_total{outcome=miss}"] == 3.0
        assert totals["service_requests_total{outcome=hit}"] == 9.0
