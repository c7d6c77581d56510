"""run_sweep temporal observability: spans, trace export, timeseries."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    SpanTracer,
    TimeSeriesRecorder,
    series_from_rows,
    validate_chrome_trace,
)
from repro.exec.journal import Journal
from repro.sim.options import SimOptions
from repro.sim.runner import run_sweep
from repro.traces.synthetic import zipf_trace
from repro.traces.trace import Trace


@pytest.fixture
def trace(rng):
    keys = zipf_trace(400, 4000, 1.0, rng)
    return Trace(name="obs-zipf", keys=keys, family="test", group="block")


def instrumented_sweep(trace, tmp_path, policies=("LRU", "FIFO", "Belady"),
                       run_id="obs-run"):
    registry = MetricsRegistry()
    opts = SimOptions(
        metrics=registry,
        timeseries=TimeSeriesRecorder(registry, cadence=500),
        tracer=SpanTracer(registry),
    )
    result = run_sweep(list(policies), [trace], size_fractions=(0.1,),
                       options=opts, checkpoint=True, run_id=run_id,
                       runs_dir=tmp_path)
    return result, opts


class TestSpans:
    def test_sweep_cell_attempt_nesting(self, trace, tmp_path):
        result, opts = instrumented_sweep(
            trace, tmp_path, policies=("LHD", "QD-LHD", "Belady"))
        assert result.ok
        tracer = opts.tracer

        [sweep] = tracer.spans(cat="sweep")
        assert sweep.parent_id is None
        cells = tracer.spans(cat="cell")
        assert len(cells) == 3              # one per policy at one size
        assert all(c.parent_id == sweep.span_id for c in cells)

        # LHD rides the fast path (its span carries label args);
        # QD-LHD and Belady go through the executor (their spans carry
        # the task key) and therefore own attempt spans.
        paths = {c.args.get("policy", c.args.get("key", [None, None])[1]):
                 c.args["path"] for c in cells}
        assert paths["LHD"] == "fast"
        assert paths["QD-LHD"] == paths["Belady"] == "exec"
        attempts = tracer.spans(cat="attempt")
        assert len(attempts) == 2
        exec_cells = {c.span_id for c in cells if c.args["path"] == "exec"}
        assert {a.parent_id for a in attempts} == exec_cells

    def test_chrome_trace_written_and_schema_valid(self, trace, tmp_path):
        instrumented_sweep(trace, tmp_path)
        trace_path = tmp_path / "obs-run" / "trace.json"
        assert trace_path.is_file()
        exported = json.loads(trace_path.read_text())
        validate_chrome_trace(exported)
        names = {e["name"] for e in exported["traceEvents"]}
        assert {"sweep", "cell", "attempt"} <= names

    def test_retries_surface_as_extra_attempt_spans(self, trace, tmp_path):
        from repro.exec import FaultPlan, RetryPolicy
        from repro.sim.runner import cell_key

        opts = SimOptions(tracer=SpanTracer())
        bad = cell_key("obs-zipf", "LRU", 0.1)
        plan = FaultPlan().fail(bad, attempt=1)
        result = run_sweep(["LRU"], [trace], size_fractions=(0.1,),
                          options=opts, fault_plan=plan,
                          retry=RetryPolicy(max_attempts=3,
                                            base_delay=0.0))
        assert result.ok
        attempts = opts.tracer.spans(cat="attempt")
        assert len(attempts) == 2           # one faulted, one clean
        assert attempts[0].args.get("error")
        assert "error" not in attempts[1].args


class TestTimeseries:
    def test_fast_and_exec_cells_feed_windowed_series(self, trace, tmp_path):
        result, opts = instrumented_sweep(trace, tmp_path)
        recorder = opts.timeseries
        key = "sim_misses_total{policy=LRU,size=0.1,trace=obs-zipf}"
        assert key in recorder.series_names()
        requests = recorder.series(
            "sim_requests_total{policy=LRU,size=0.1,trace=obs-zipf}")
        assert sum(v for _, _, v in requests) == trace.num_requests

    def test_journal_carries_timeseries_line(self, trace, tmp_path):
        instrumented_sweep(trace, tmp_path)
        state = Journal(tmp_path / "obs-run").load()
        assert state.timeseries
        grouped = series_from_rows(state.timeseries)
        assert any(name.startswith("sim_misses_total") for name in grouped)

    def test_windowed_miss_ratio_sums_to_run_totals(self, trace, tmp_path):
        result, opts = instrumented_sweep(trace, tmp_path,
                                          policies=("LRU",))
        [record] = result.records
        recorder = opts.timeseries
        labels = "{policy=LRU,size=0.1,trace=obs-zipf}"
        misses = sum(v for _, _, v in
                     recorder.series(f"sim_misses_total{labels}"))
        assert misses == record.misses

    def test_reference_cells_record_the_fast_cells_curves(self, trace):
        rows = {}
        for fast in (True, False):
            recorder = TimeSeriesRecorder(cadence=500)
            result = run_sweep(["LHD"], [trace],
                               size_fractions=(0.01, 0.1),
                               options=SimOptions(fast=fast,
                                                  timeseries=recorder))
            assert result.accelerated == (2 if fast else 0)
            rows[fast] = recorder.to_rows()
        assert rows[True]
        assert rows[False] == rows[True]

    def test_fault_plan_sweeps_record_no_curves(self, trace):
        """The injected delay times the first attempt out after the
        cell ran, so recording would count the cell twice."""
        from repro.exec import FaultPlan, RetryPolicy
        from repro.sim.runner import cell_key

        recorder = TimeSeriesRecorder(cadence=500)
        plan = FaultPlan().delay(cell_key("obs-zipf", "LRU", 0.1), 5.0,
                                 attempt=1)
        result = run_sweep(["LRU", "LHD"], [trace], size_fractions=(0.1,),
                           options=SimOptions(timeseries=recorder),
                           fault_plan=plan,
                           retry=RetryPolicy(max_attempts=2, base_delay=0.0,
                                             timeout=1.0))
        assert result.ok
        assert recorder.series_names() == []


class TestUninstrumented:
    def test_defaults_record_nothing(self, trace):
        opts = SimOptions()
        result = run_sweep(["LRU"], [trace], size_fractions=(0.1,),
                          options=opts)
        assert result.ok
        assert opts.timeseries is None and opts.tracer is None
