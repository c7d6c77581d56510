"""The request ledger keeps its counts in one store, under one lock.

``OutcomeLedger.record`` updates a request's count, its latency sample,
its latency histogram bucket and exemplar, and the flag counter in one
critical section.  These tests pin that it takes exactly one lock, that
the series it feeds hold what stand-alone metrics fed the same stream
hold, that no update is lost under heavy thread switching, and that two
ledgers of one layer and labels still add into the same series.
"""

import random
import sys
import threading
import types

import pytest

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.service import service as service_module
from repro.service.service import OUTCOMES, ServiceMetrics
from tests.conftest import CountingLock

THREADS = 8
PER_THREAD = 20_000


def counted_ledger(monkeypatch, registry):
    """A service ledger all of whose locks count into one tally."""
    tally = [0]
    fake = types.SimpleNamespace(Lock=lambda: CountingLock(tally))
    with monkeypatch.context() as patch:
        patch.setattr(service_module, "threading", fake)
        patch.setattr("repro.obs.metrics.threading", fake)
        ledger = ServiceMetrics(registry, labels={"shard": "s0"})
    return ledger, tally


def stream(seed=11, length=5_000):
    """Seeded ``(outcome, latency, flagged, exemplar)`` records."""
    rng = random.Random(seed)
    records = []
    for index in range(length):
        latency = rng.choice([0.0, rng.expovariate(200.0),
                              rng.uniform(0.0, 40.0)])
        exemplar = f"t{index}" if rng.random() < 0.3 else None
        records.append((rng.choice(OUTCOMES), latency,
                        rng.random() < 0.2, exemplar))
    return records


@pytest.mark.parametrize("with_registry", [False, True],
                         ids=["bare", "registry"])
def test_record_and_bump_take_one_lock(monkeypatch, with_registry):
    registry = MetricsRegistry() if with_registry else None
    ledger, tally = counted_ledger(monkeypatch, registry)
    for flagged, exemplar in ((False, None), (True, "trace-1")):
        tally[0] = 0
        ledger.record("hit", 0.002, flagged, exemplar=exemplar)
        assert tally[0] == 1
    tally[0] = 0
    ledger.bump("fetch_attempts")
    assert tally[0] == 1
    assert ledger.snapshot()["hit"] == 2
    assert ledger.snapshot()["coalesced"] == 1


@pytest.mark.parametrize("with_registry", [False, True],
                         ids=["bare", "registry"])
def test_fetch_accounting_takes_one_lock(monkeypatch, with_registry):
    """A failed fetch bumps its attempt and its failure in one critical
    section; a miss and the attempt that served it go in one record."""
    registry = MetricsRegistry() if with_registry else None
    ledger, tally = counted_ledger(monkeypatch, registry)
    ledger.record_fetch(ok=False)
    assert tally[0] == 1
    tally[0] = 0
    ledger.record("miss", 0.002, side="fetch_attempts")
    assert tally[0] == 1
    snap = ledger.snapshot()
    assert (snap["fetch_attempts"], snap["fetch_failures"]) == (2, 1)
    assert snap["miss"] == snap["requests"] == 1


def test_no_snapshot_sees_an_attempt_without_its_failure():
    ledger = ServiceMetrics(MetricsRegistry())
    torn = []

    def fail():
        for _ in range(PER_THREAD):
            ledger.record_fetch(ok=False)

    def watch():
        for _ in range(PER_THREAD // 4):
            snap = ledger.snapshot()
            if snap["fetch_attempts"] != snap["fetch_failures"]:
                torn.append(snap)

    run_threads([fail, fail, watch])
    assert torn == []
    assert ledger.snapshot()["fetch_failures"] == 2 * PER_THREAD


def test_bare_ledger_builds_no_histogram(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a ledger without a registry built a histogram")

    monkeypatch.setattr(service_module, "Histogram", refuse)
    ledger = ServiceMetrics()
    assert ledger.record("hit", 0.001, exemplar="t0") is False
    assert ledger.snapshot()["hit"] == 1


def test_registry_rows_match_stand_alone_metrics():
    """The ledger's rows and exemplar answers are those of plain metrics
    fed the same stream one call at a time."""
    registry = MetricsRegistry()
    ledger = ServiceMetrics(registry, labels={"shard": "s1"})
    plain = MetricsRegistry()
    took_ledger, took_plain = [], []
    for outcome, value, flagged, exemplar in stream():
        took_ledger.append(ledger.record(outcome, value, flagged,
                                         exemplar=exemplar))
        plain.counter("service_requests_total", outcome=outcome,
                      shard="s1").inc()
        took_plain.append(plain.histogram(
            "service_request_latency_seconds", "", DEFAULT_LATENCY_BUCKETS,
            outcome=outcome, shard="s1").observe(value, exemplar=exemplar))
        if flagged:
            plain.counter("service_coalesced_total", shard="s1").inc()
    assert took_ledger == took_plain
    assert any(took_plain)

    def rows(reg):
        return {(row["name"], tuple(sorted(row["labels"].items()))):
                {k: v for k, v in row.items() if k != "help"}
                for row in reg.snapshot()}

    ours, theirs = rows(registry), rows(plain)
    for key, row in theirs.items():
        assert ours[key] == row
    # The side counters the stream never bumped are registered at zero.
    assert all(row["value"] == 0 for key, row in ours.items()
               if key not in theirs)
    snap = ledger.snapshot()
    for outcome in OUTCOMES:
        assert snap[outcome] == theirs[(
            "service_requests_total",
            (("outcome", outcome), ("shard", "s1")))]["value"]
    assert snap["requests"] == 5_000


def run_threads(workers):
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for work in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(previous)


def test_no_record_lost_across_threads():
    registry = MetricsRegistry()
    ledger = ServiceMetrics(registry)

    def work():
        for index in range(PER_THREAD):
            ledger.record(OUTCOMES[index % 2], 0.001 * (index % 7),
                          index % 3 == 0)

    run_threads([work] * THREADS)
    total = THREADS * PER_THREAD
    snap = ledger.snapshot()
    assert snap["requests"] == total
    assert snap["hit"] + snap["miss"] == total
    assert snap["coalesced"] == THREADS * len(range(0, PER_THREAD, 3))
    values = registry.counter_values()
    assert values["service_requests_total{outcome=hit}"] == snap["hit"]
    assert values["service_requests_total{outcome=miss}"] == snap["miss"]
    histogram_counts = sum(
        row["count"] for row in registry.snapshot()
        if row["name"] == "service_request_latency_seconds")
    assert histogram_counts == total


def test_twin_ledgers_add_into_one_series():
    """Two ledgers of one layer and labels on one registry share their
    series and so their lock: concurrent records all land."""
    registry = MetricsRegistry()
    first = ServiceMetrics(registry, labels={"shard": "s0"})
    second = ServiceMetrics(registry, labels={"shard": "s0"})
    assert first._lock is second._lock
    threads = 4

    def work(ledger):
        return lambda: [ledger.record("hit", 0.001, True)
                        for _ in range(PER_THREAD)]

    run_threads([work(first), work(second)] * (threads // 2))
    total = threads * PER_THREAD
    values = registry.counter_values()
    assert values["service_requests_total{outcome=hit,shard=s0}"] == total
    assert values["service_coalesced_total{shard=s0}"] == total
    assert first.snapshot()["hit"] == second.snapshot()["hit"] == total


def test_group_with_mixed_locks_is_refused():
    registry = MetricsRegistry()
    registry.counter("service_requests_total", outcome="hit")
    registry.counter("service_requests_total", outcome="miss")
    with pytest.raises(ValueError, match="different locks"):
        ServiceMetrics(registry)
