"""Per-request tracing: sampling, tail keep rules, exports.

Everything runs on a ``VirtualClock`` with fixed seeds, so the sampled
set, the trace ids and the kept buffer are bit-reproducible -- which is
exactly the property the CI smoke baseline relies on.
"""

import json
import random

import pytest

from repro.exec.clock import VirtualClock
from repro.obs import MetricsRegistry, reqtrace
from repro.obs.metrics import Reservoir, percentile
from repro.obs.reqtrace import (
    KEEP_EXEMPLAR,
    KEEP_MARKED,
    KEEP_OUTCOME,
    KEEP_SAMPLED,
    KEEP_SLOW,
    NOT_SAMPLED,
    RequestTracer,
    TailRules,
    TraceContext,
    read_trace_jsonl,
    render_trace_list,
    render_trace_tree,
    validate_chrome_trace,
)
from tests.conftest import CountingLock


def make_tracer(**kw):
    kw.setdefault("clock", VirtualClock())
    return RequestTracer(**kw)


class TestHeadSampling:
    def test_sample_zero_traces_nothing(self):
        tracer = make_tracer(sample=0.0, seed=1)
        assert all(tracer.start("request") is None for _ in range(50))
        assert tracer.summary() == {
            "requests": 50, "sampled": 0, "kept": 0, "discarded": 0,
            "open": 0, "by_reason": {}}

    def test_sample_one_traces_everything(self):
        tracer = make_tracer(sample=1.0, seed=1)
        spans = [tracer.start("request") for _ in range(20)]
        assert all(span is not None for span in spans)
        assert tracer.summary()["sampled"] == 20

    def test_sampling_is_seed_deterministic(self):
        def sampled_mask(seed):
            tracer = make_tracer(sample=0.3, seed=seed)
            return [tracer.start("r") is not None for _ in range(200)]

        assert sampled_mask(7) == sampled_mask(7)
        assert sampled_mask(7) != sampled_mask(8)

    def test_trace_ids_unique_and_hex(self):
        tracer = make_tracer(tail=TailRules(keep_fraction=1.0))
        ids = set()
        for _ in range(100):
            span = tracer.start("r")
            ids.add(span.trace_id)
            span.end(outcome="hit")
        assert len(ids) == 100
        assert all(len(t) == 12 and int(t, 16) >= 0 for t in ids)

    def test_invalid_sample_rejected(self):
        with pytest.raises(ValueError):
            make_tracer(sample=1.5)
        with pytest.raises(ValueError):
            make_tracer(max_traces=0)


class TestContextPropagation:
    def test_child_joins_parent_trace(self):
        tracer = make_tracer(tail=TailRules(keep_fraction=1.0))
        root = tracer.start("request")
        joined = tracer.start("service.get", ctx=root.ctx)
        assert joined.trace_id == root.trace_id
        joined.end(outcome="hit")
        root.end(outcome="hit")
        (trace,) = tracer.kept
        assert {s.name for s in trace.spans} == {"request",
                                                  "service.get"}
        by_name = {s.name: s for s in trace.spans}
        assert by_name["service.get"].parent_id == root.span_id

    def test_not_sampled_sentinel_stays_dark(self):
        tracer = make_tracer(sample=1.0)
        before = tracer.summary()["requests"]
        assert tracer.start("service.get", ctx=NOT_SAMPLED) is None
        # A propagated no-trace decision is not a new request either.
        assert tracer.summary()["requests"] == before

    def test_not_sampled_sentinel_takes_no_lock(self):
        tracer = make_tracer(sample=1.0)
        tracer._lock = lock = CountingLock()
        assert tracer.start("service.get", ctx=NOT_SAMPLED) is None
        assert lock.acquisitions == 0

    def test_ctx_for_finished_trace_stays_dark(self):
        tracer = make_tracer(tail=TailRules(keep_fraction=1.0))
        root = tracer.start("request")
        ctx = root.ctx
        root.end(outcome="hit")
        assert tracer.start("late", ctx=ctx) is None

    def test_ctx_for_unknown_trace_stays_dark(self):
        tracer = make_tracer()
        ctx = TraceContext(trace_id="feedfacecafe", span_id=1)
        assert tracer.start("orphan", ctx=ctx) is None


class TestSpans:
    def test_add_span_rejects_negative_duration(self):
        tracer = make_tracer()
        root = tracer.start("request")
        with pytest.raises(ValueError):
            root.add_span("queue.wait", 2.0, 1.0)

    def test_end_is_idempotent(self):
        tracer = make_tracer(tail=TailRules(keep_fraction=1.0))
        root = tracer.start("request")
        assert root.end(outcome="hit") is not None
        assert root.end(outcome="hit") is None
        assert len(tracer.kept) == 1

    def test_retroactive_spans_and_explicit_end_time(self):
        clock = VirtualClock()
        tracer = make_tracer(clock=clock,
                             tail=TailRules(keep_fraction=1.0))
        clock.advance(5.0)
        root = tracer.start("request", start=1.0)
        root.add_span("queue.wait", 1.0, 4.0, depth=3)
        root.end(outcome="hit", at=6.0)
        (trace,) = tracer.kept
        assert trace.latency == pytest.approx(5.0)
        wait = next(s for s in trace.spans if s.name == "queue.wait")
        assert (wait.start, wait.stop) == (1.0, 4.0)
        assert wait.args["depth"] == 3

    def test_context_manager_records_errors(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.start("request") as root:
                raise RuntimeError("backend exploded")
        (trace,) = tracer.kept
        assert trace.keep == KEEP_OUTCOME
        assert "backend exploded" in trace.spans[-1].args["error"]


class TestTailRules:
    def test_error_dropped_shed_always_kept(self):
        tracer = make_tracer()
        for outcome in ("error", "dropped", "shed"):
            tracer.start("request").end(outcome=outcome)
        tracer.start("request").end(outcome="hit")   # boring: discarded
        assert [t.outcome for t in tracer.kept] == ["error", "dropped",
                                                    "shed"]
        assert all(t.keep == KEEP_OUTCOME for t in tracer.kept)
        assert tracer.summary()["discarded"] == 1

    def test_marked_traces_kept(self):
        tracer = make_tracer()
        root = tracer.start("request")
        root.mark("breaker-open")
        root.end(outcome="stale")
        (trace,) = tracer.kept
        assert trace.keep == KEEP_MARKED

    def test_slow_rule_engages_after_min_samples(self):
        clock = VirtualClock()
        tracer = make_tracer(
            clock=clock,
            tail=TailRules(latency_quantile=0.95, min_latency_samples=10))
        # 20 fast requests, then one 100x slower.
        for _ in range(20):
            root = tracer.start("request")
            clock.advance(0.001)
            root.end(outcome="hit")
        root = tracer.start("request")
        clock.advance(0.1)
        root.end(outcome="hit")
        kept = list(tracer.kept)
        assert kept and kept[-1].keep == KEEP_SLOW
        assert kept[-1].latency == pytest.approx(0.1)

    def test_slow_threshold_recomputed_only_after_a_store(self,
                                                           monkeypatch):
        calls = []

        def counted(values, fraction):
            calls.append(fraction)
            return percentile(values, fraction)

        monkeypatch.setattr(reqtrace, "percentile", counted)
        stream = random.Random(11)
        latencies = [stream.lognormvariate(0.0, 1.0) for _ in range(15_000)]
        tracer = make_tracer(seed=4)
        reasons = [tracer.start("request", start=0.0).end(outcome="hit",
                                                          at=latency)
                   for latency in latencies]

        # Reference: the slow rule recomputed on every close, over the
        # tracer's reservoir (256 entries, seeded with seed + 1).
        rules = TailRules()
        sample = Reservoir(size=256, seed=4 + 1)
        expected = []
        for latency in latencies:
            slow = (sample.count >= rules.min_latency_samples
                    and latency >= percentile(sample.values(),
                                              rules.latency_quantile))
            expected.append(KEEP_SLOW if slow else None)
            sample.add(latency)
        assert reasons == expected
        assert expected.count(KEEP_SLOW) > 100
        every_close = len(latencies) - rules.min_latency_samples
        assert len(calls) <= every_close / 10

    def test_latency_quantile_must_be_a_fraction(self):
        with pytest.raises(ValueError, match="latency_quantile"):
            TailRules(latency_quantile=1.5)

    def test_keep_fraction_residual_sampling(self):
        tracer = make_tracer(tail=TailRules(keep_fraction=1.0))
        tracer.start("request").end(outcome="hit")
        (trace,) = tracer.kept
        assert trace.keep == KEEP_SAMPLED

    def test_buffer_is_bounded(self):
        tracer = make_tracer(max_traces=8)
        for _ in range(50):
            tracer.start("request").end(outcome="error")
        assert len(tracer.kept) == 8
        assert tracer.summary()["kept"] == 8


class TestExemplarPinning:
    def test_exemplar_traces_survive_buffer_churn(self):
        tracer = make_tracer(max_traces=4)
        root = tracer.start("request")
        pinned_id = root.trace_id
        root.mark(KEEP_EXEMPLAR)
        root.end(outcome="hit")
        for _ in range(20):                       # churn the deque
            tracer.start("request").end(outcome="error")
        ids = {row["trace_id"] for row in tracer._rows()}
        assert pinned_id in ids
        assert len(ids) == 5                      # 4 ring + 1 pinned


class TestExports:
    def build(self):
        clock = VirtualClock()
        tracer = make_tracer(clock=clock)
        for index in range(3):
            root = tracer.start("request", key=f"k{index}")
            child = root.child("service.get")
            clock.advance(0.01)
            child.end(outcome="error")
            root.end(outcome="error")
        return tracer

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self.build()
        path = tracer.write_jsonl(tmp_path / "reqtrace.jsonl")
        rows = read_trace_jsonl(path)
        assert len(rows) == 3
        assert all(row["type"] == "reqtrace" for row in rows)
        assert all(len(row["spans"]) == 2 for row in rows)
        # Torn last line (crashed writer) is skipped, not fatal.
        path.write_text(path.read_text() + '{"type": "reqtr',
                        encoding="utf-8")
        assert len(read_trace_jsonl(path)) == 3

    def test_rows_are_strict_json(self):
        rows = self.build()._rows()
        json.loads(json.dumps(rows, allow_nan=False))

    def test_chrome_export_validates(self, tmp_path):
        tracer = self.build()
        path = tracer.write_chrome_trace(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        validate_chrome_trace(doc)    # raises on a malformed document
        lanes = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert len(lanes) == 3                    # one lane per trace
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert all("[error]" in n for n in names)

    def test_span_ids_unique_across_traces(self):
        rows = self.build()._rows()
        ids = [s["span_id"] for row in rows for s in row["spans"]]
        assert len(ids) == len(set(ids))

    def test_render_trace_list_filters(self):
        rows = self.build()._rows()
        assert "request" in render_trace_list(rows)
        assert render_trace_list(rows, outcome="hit") == \
            "(no kept traces)"
        assert len(render_trace_list(rows, slowest=1).splitlines()) == 2

    def test_render_trace_tree_nests_children(self):
        rows = self.build()._rows()
        tree = render_trace_tree(rows[0])
        lines = tree.splitlines()
        assert lines[0].startswith(f"trace {rows[0]['trace_id']}")
        assert any(line.startswith("  - request") for line in lines)
        assert any(line.startswith("    - service.get")
                   for line in lines)


class TestRegistryCounters:
    def test_reqtrace_counters_flow_to_registry(self):
        registry = MetricsRegistry()
        tracer = make_tracer(sample=1.0, registry=registry,
                             labels={"policy": "LRU"})
        tracer.start("request").end(outcome="error")
        tracer.start("request").end(outcome="hit")
        values = {(row["name"], tuple(sorted(row["labels"].items()))):
                  row["value"]
                  for row in registry.snapshot()
                  if row["name"].startswith("reqtrace_")}
        base = (("policy", "LRU"),)
        assert values[("reqtrace_requests_total", base)] == 2
        assert values[("reqtrace_sampled_total", base)] == 2
        assert values[("reqtrace_discarded_total", base)] == 1
        assert values[("reqtrace_kept_total",
                       (("policy", "LRU"), ("reason", "outcome")))] == 1
