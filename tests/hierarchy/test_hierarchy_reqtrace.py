"""Request tracing through the multi-tier hierarchy.

Per-tier lookup probes, demotions and their admission verdicts become
child spans with ``tier=`` labels.  The hierarchy is clockless, so the
spans are instantaneous markers: what matters is the request *shape*.
"""

from repro.hierarchy import CacheHierarchy, dram_flash_config
from repro.hierarchy.tier import ADMITTED
from repro.obs.reqtrace import RequestTracer, TailRules

KEEP_ALL = TailRules(keep_fraction=1.0)


def traced_hierarchy(dram=300, flash=4096, **kwargs):
    tracer = RequestTracer(sample=1.0, seed=0, tail=KEEP_ALL)
    hierarchy = CacheHierarchy(dram_flash_config(dram, flash, **kwargs),
                               tracer=tracer)
    return hierarchy, tracer


def spans_by_name(trace):
    by_name = {}
    for span in trace.spans:
        by_name.setdefault(span.name, []).append(span)
    return by_name


class TestHierarchySpans:
    def test_lookup_probes_carry_tier_labels(self):
        hierarchy, tracer = traced_hierarchy()
        assert hierarchy.request("a", 200) == "miss"
        (trace,) = tracer.kept
        probes = spans_by_name(trace)["tier.lookup"]
        assert [p.args["tier"] for p in probes] == ["dram", "flash"]
        assert all(p.args["hit"] is False for p in probes)
        root = spans_by_name(trace)["hierarchy.request"][0]
        assert root.args["outcome"] == "miss"

    def test_hit_stops_probing_and_names_the_serving_tier(self):
        hierarchy, tracer = traced_hierarchy(dram_policy="fifo")
        hierarchy.request("a", 200)
        hierarchy.request("b", 200)       # demotes a to flash
        assert hierarchy.request("a", 200) == "flash"
        trace = list(tracer.kept)[-1]
        names = spans_by_name(trace)
        probes = names["tier.lookup"]
        assert [p.args["tier"] for p in probes] == ["dram", "flash"]
        assert probes[-1].args["hit"] is True
        root = names["hierarchy.request"][0]
        assert root.args["outcome"] == "flash"
        assert root.args["promoted_to"] == "dram"

    def test_demotion_spans_carry_admission_verdicts(self):
        hierarchy, tracer = traced_hierarchy(dram_policy="fifo")
        hierarchy.request("a", 200)
        hierarchy.request("b", 200)       # a: dram -> flash
        trace = list(tracer.kept)[-1]
        (demote,) = spans_by_name(trace)["tier.demote"]
        assert demote.args["tier"] == "flash"
        assert demote.args["verdict"] == ADMITTED
        assert demote.args["key"] == "'a'"

    def test_last_tier_eviction_leaves_the_hierarchy(self):
        hierarchy, tracer = traced_hierarchy(dram=300, flash=300,
                                             dram_policy="fifo")
        for key in ("a", "b", "c"):
            hierarchy.request(key, 200)
        evicted = [span
                   for trace in tracer.kept
                   for span in trace.spans
                   if span.name == "tier.demote"
                   and span.args["verdict"] == "evicted"]
        assert evicted, "no final-tier eviction span recorded"
        assert all(span.args["tier"] == "flash" for span in evicted)

    def test_ctx_joins_an_outer_trace(self):
        hierarchy, tracer = traced_hierarchy()
        root = tracer.start("request", key="'a'")
        hierarchy.request("a", 200, ctx=root.ctx)
        root.end(outcome="miss")
        (trace,) = tracer.kept
        names = spans_by_name(trace)
        assert names["hierarchy.request"][0].parent_id == \
            names["request"][0].span_id

    def test_tracing_does_not_change_counters(self):
        def replay(traced):
            tracer = (RequestTracer(sample=1.0, seed=0, tail=KEEP_ALL)
                      if traced else None)
            hierarchy = CacheHierarchy(dram_flash_config(2048, 8192),
                                       tracer=tracer)
            for index in range(400):
                hierarchy.request(index % 37, 100 + (index % 5) * 50)
            hierarchy.check_conservation()
            return (hierarchy.hits_by_tier, hierarchy.backend_fetches,
                    hierarchy.total_cost)

        assert replay(False) == replay(True)
