"""SpanTracer: a sweep is one request trace, sampled at 1 and kept."""

import json

import numpy as np
import pytest

from repro.obs import (
    CHROME_TRACE_SCHEMA,
    MetricsRegistry,
    SpanTracer,
    validate_chrome_trace,
    validate_json,
)
from repro.sim.options import SimOptions
from repro.sim.runner import run_sweep
from repro.traces.trace import Trace


class FakeClock:
    """Deterministic monotonic clock: each call advances one second."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        self.t += 1.0
        return self.t


def make_tracer():
    return SpanTracer(clock=FakeClock())


class TestNesting:
    def test_context_manager_spans_nest_by_parent_handle(self):
        tracer = make_tracer()
        with tracer.start("sweep") as sweep:
            with sweep.child("cell") as cell:
                with cell.child("attempt"):
                    pass
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["sweep"].parent_id is None
        assert by_name["cell"].parent_id == by_name["sweep"].span_id
        assert by_name["attempt"].parent_id == by_name["cell"].span_id

    def test_siblings_share_a_parent(self):
        tracer = make_tracer()
        with tracer.start("sweep") as sweep:
            with sweep.child("cell-a"):
                pass
            with sweep.child("cell-b"):
                pass
        by_name = {s.name: s for s in tracer.spans()}
        assert (by_name["cell-a"].parent_id
                == by_name["cell-b"].parent_id
                == by_name["sweep"].span_id)
        assert sum(s.parent_id == sweep.span_id
                   for s in tracer.spans()) == 2

    def test_spans_sorted_by_start_and_cat_filter(self):
        tracer = make_tracer()
        with tracer.start("a"):
            pass
        with tracer.start("b"):
            pass
        assert [s.name for s in tracer.spans()] == ["a", "b"]
        assert [s.name for s in tracer.spans(cat="b")] == ["b"]


class TestAddSpan:
    def test_explicit_timestamps_and_args(self):
        tracer = make_tracer()
        with tracer.start("sweep") as sweep:
            span_id = sweep.add_span("cell", 1.0, 3.5, policy="LRU")
        [span] = tracer.spans(cat="cell")
        assert span.span_id == span_id
        assert span.duration == 2.5
        assert span.args["policy"] == "LRU"

    def test_defaults_parent_to_open_span(self):
        tracer = make_tracer()
        with tracer.start("sweep") as sweep:
            sweep.add_span("cell", 0.0, 1.0)
        [cell] = tracer.spans(cat="cell")
        assert cell.parent_id == sweep.span_id

    def test_preallocated_id_lets_children_arrive_first(self):
        """The executor records attempts before their cell settles."""
        tracer = make_tracer()
        with tracer.start("sweep") as sweep:
            cell = sweep.child("cell")
            cell.add_span("attempt", 1.0, 2.0)
            cell.end()
        [attempt] = tracer.spans(cat="attempt")
        assert attempt.parent_id == cell.span_id

    def test_end_before_start_rejected(self):
        with make_tracer().start("sweep") as sweep:
            with pytest.raises(ValueError):
                sweep.add_span("bad", 2.0, 1.0)

    def test_traces_get_distinct_lanes(self):
        tracer = make_tracer()
        for name in ("first", "second"):
            with tracer.start(name) as root:
                root.add_span("cell", 0.0, 1.0)
        doc = tracer.to_chrome()
        tids = {e["args"]["trace_id"]: e["tid"]
                for e in doc["traceEvents"] if e["ph"] == "X"}
        assert sorted(tids.values()) == [0, 1]


class TestSweepSetup:
    def test_every_trace_is_kept(self):
        tracer = make_tracer()
        for _ in range(600):              # beyond RequestTracer's 512
            with tracer.start("sweep"):
                pass
        summary = tracer.summary()
        assert summary["kept"] == summary["requests"] == 600
        assert len(tracer.spans(cat="sweep")) == 600


def tiny_trace():
    keys = np.arange(200, dtype=np.int64) % 40
    return Trace(name="span-loop", keys=keys, family="test")


def traced_sweep(registry):
    tracer = SpanTracer()
    result = run_sweep(["LRU", "FIFO"], [tiny_trace()],
                       size_fractions=(0.5,),
                       options=SimOptions(metrics=registry, tracer=tracer))
    assert result.ok
    [sweep] = tracer.spans(cat="sweep")
    return sweep


class TestMetricDeltas:
    def test_counter_deltas_attached_to_span(self):
        registry = MetricsRegistry()
        sweep = traced_sweep(registry)
        assert sweep.args["metric_deltas"] == {"exec_attempts_total": 2}

    def test_zero_delta_counters_omitted(self):
        registry = MetricsRegistry()
        registry.counter("quiet_total").inc(5)   # before the span opens
        sweep = traced_sweep(registry)
        assert "quiet_total" not in sweep.args["metric_deltas"]
        assert "exec_retries_total" not in sweep.args["metric_deltas"]

    def test_error_captured_and_exception_propagates(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.start("sweep"):
                raise RuntimeError("boom")
        [span] = tracer.spans()
        assert span.args["error"].startswith("RuntimeError")
        assert span.args["outcome"] == "error"


class TestChromeExport:
    def _traced(self):
        tracer = make_tracer()
        with tracer.start("sweep") as sweep:
            with sweep.child("cell", policy="LRU"):
                pass
        return tracer

    def test_export_passes_schema(self):
        validate_chrome_trace(self._traced().to_chrome())

    def test_events_carry_ids_and_microseconds(self):
        tracer = self._traced()
        trace = tracer.to_chrome()
        meta, *events = trace["traceEvents"]
        assert meta["ph"] == "M"
        by_name = {e["name"]: e for e in events}
        cell = by_name["cell"]
        assert cell["ph"] == "X"
        assert cell["args"]["parent_id"] == \
            by_name["sweep"]["args"]["span_id"]
        # FakeClock ticks one second per call: durations are whole µs.
        assert cell["dur"] >= 1e6

    def test_write_validates_and_produces_valid_json(self, tmp_path):
        path = self._traced().write_chrome_trace(tmp_path / "trace.json")
        loaded = json.loads(path.read_text())
        validate_chrome_trace(loaded)


class TestValidator:
    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})

    def test_wrong_type(self):
        with pytest.raises(ValueError, match="expected array"):
            validate_json({"traceEvents": "nope"}, CHROME_TRACE_SCHEMA)

    def test_enum_violation(self):
        bad = {"traceEvents": [
            {"name": "e", "ph": "Z", "pid": 1, "tid": 0, "ts": 0}]}
        with pytest.raises(ValueError, match="not in"):
            validate_json(bad, CHROME_TRACE_SCHEMA)

    def test_minimum_violation(self):
        bad = {"traceEvents": [
            {"name": "e", "ph": "M", "pid": 1, "tid": 0, "ts": -1}]}
        with pytest.raises(ValueError, match="minimum"):
            validate_json(bad, CHROME_TRACE_SCHEMA)

    def test_bool_is_not_an_integer(self):
        bad = {"traceEvents": [
            {"name": "e", "ph": "M", "pid": True, "tid": 0, "ts": 0}]}
        with pytest.raises(ValueError, match="expected integer"):
            validate_json(bad, CHROME_TRACE_SCHEMA)

    def test_complete_event_requires_dur(self):
        bad = {"traceEvents": [
            {"name": "e", "ph": "X", "pid": 1, "tid": 0, "ts": 0}]}
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(bad)
