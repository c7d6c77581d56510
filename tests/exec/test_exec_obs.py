"""Executor/journal observability: attempt counters, metrics lines."""

from repro.exec import NO_RETRY, FaultPlan, Journal, RetryPolicy, Task, run_tasks
from repro.obs import MetricsRegistry
from repro.sim.options import SimOptions
from repro.sim.runner import run_sweep


def double(payload):
    """Module-level task body (must be importable by workers)."""
    return payload * 2


def tasks_for(*keys):
    return [Task(key=(key,), payload=key) for key in keys]


class TestExecutorMetrics:
    def test_clean_run_counts_attempts_and_durations(self):
        registry = MetricsRegistry()
        outcome = run_tasks(tasks_for("a", "b", "c"), double,
                            registry=registry)
        assert outcome.failures.ok
        values = registry.counter_values()
        assert values["exec_attempts_total"] == 3
        assert "exec_retries_total" not in values or \
            values["exec_retries_total"] == 0
        durations = sum(row["count"] for row in registry.snapshot()
                        if row["name"] == "exec_task_seconds")
        assert durations == 3

    def test_retries_counted(self):
        registry = MetricsRegistry()
        plan = FaultPlan().fail(("b",), attempt=1)
        outcome = run_tasks(
            tasks_for("a", "b"), double,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            fault_plan=plan, registry=registry)
        assert outcome.failures.ok
        values = registry.counter_values()
        assert values["exec_attempts_total"] == 3   # a once, b twice
        assert values["exec_retries_total"] == 1

    def test_exhausted_failures_counted_by_kind(self):
        registry = MetricsRegistry()
        plan = FaultPlan().fail(("a",))
        outcome = run_tasks(tasks_for("a"), double, retry=NO_RETRY,
                            fault_plan=plan, registry=registry)
        assert not outcome.failures.ok
        values = registry.counter_values()
        assert sum(v for k, v in values.items()
                   if k.startswith("exec_failures_total")) == 1


class TestJournalMetricsLine:
    def test_record_metrics_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("cells_total").inc(4)
        with Journal.create(run_id="r1", root=tmp_path) as journal:
            journal.record_result(("t",), {"misses": 1})
            journal.record_metrics(registry.snapshot())
        state = Journal.open("r1", root=tmp_path).load()
        assert state.metrics == registry.snapshot()
        assert state.results[("t",)] == {"misses": 1}

    def test_last_metrics_line_wins(self, tmp_path):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("n_total").inc(1)
        second.counter("n_total").inc(2)
        with Journal.create(run_id="r1", root=tmp_path) as journal:
            journal.record_metrics(first.snapshot())
            journal.record_metrics(second.snapshot())
        state = Journal.open("r1", root=tmp_path).load()
        assert state.metrics == second.snapshot()

    def test_metrics_absent_when_never_recorded(self, tmp_path):
        with Journal.create(run_id="r1", root=tmp_path) as journal:
            journal.record_result(("t",), {"misses": 1})
        state = Journal.open("r1", root=tmp_path).load()
        assert state.metrics is None


class TestSweepMetrics:
    def test_sweep_populates_registry_and_journal(self, small_trace,
                                                  tmp_path):
        registry = MetricsRegistry()
        result = run_sweep(
            ["LHD", "LIRS"], [small_trace], [0.1],
            SimOptions(metrics=registry),
            checkpoint=True, runs_dir=tmp_path)
        assert result.metrics is registry
        values = registry.counter_values()
        # LHD rides the vectorized fast path; LIRS has no fast engine
        # and goes through the executor.
        assert values["sweep_cells_total{path=fast}"] == 1
        assert values["sweep_cells_total{path=exec}"] == 1
        assert values["sweep_cells_total{path=resumed}"] == 0

        state = Journal.open(result.run_id, root=tmp_path).load()
        assert state.metrics is not None
        names = {row["name"] for row in state.metrics}
        assert "sweep_cells_total" in names
        assert "sweep_cell_seconds" in names

    def test_resumed_cells_counted(self, small_trace, tmp_path):
        first = run_sweep(["LHD"], [small_trace], [0.1],
                          checkpoint=True, runs_dir=tmp_path)
        registry = MetricsRegistry()
        resumed = run_sweep(["LHD"], [small_trace], [0.1],
                            SimOptions(metrics=registry),
                            resume=first.run_id, runs_dir=tmp_path)
        assert resumed.records == first.records
        values = registry.counter_values()
        assert values["sweep_cells_total{path=resumed}"] == 1
        assert values["sweep_cells_total{path=fast}"] == 0
