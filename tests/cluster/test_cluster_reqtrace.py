"""Request tracing through the sharded cluster.

Cluster hops -- primary routing, replica peeks, failover -- become
child spans carrying ``shard=`` labels, and the per-shard services
(which share the cluster's tracer) nest their own spans underneath
instead of starting fresh roots.
"""

from __future__ import annotations

from repro.exec.clock import VirtualClock
from repro.cluster import ClusterConfig, build_cluster
from repro.obs.reqtrace import RequestTracer, TailRules
from repro.policies.lru import LRU

KEEP_ALL = TailRules(keep_fraction=1.0)


def build_traced_cluster(shards=3, replicas=1, sample=1.0):
    clock = VirtualClock()
    tracer = RequestTracer(sample=sample, seed=0, clock=clock,
                           tail=KEEP_ALL)
    cluster = build_cluster(lambda: LRU(20), shards=shards,
                            config=ClusterConfig(replicas=replicas),
                            clock=clock, tracer=tracer)
    return cluster, tracer, clock


def spans_by_name(trace):
    by_name = {}
    for span in trace.spans:
        by_name.setdefault(span.name, []).append(span)
    return by_name


class TestClusterSpans:
    def test_root_notes_primary_shard_and_nests_service_span(self):
        cluster, tracer, _clock = build_traced_cluster()
        result = cluster.get("k1")
        assert result.outcome == "miss"
        (trace,) = tracer.kept
        names = spans_by_name(trace)
        (root,) = names["cluster.get"]
        assert root.args["shard"] == result.shard
        assert root.args["served_by"] == result.shard
        # The shard's own service span joined the same trace under the
        # cluster hop instead of rooting a trace of its own.
        (service,) = names["service.get"]
        assert service.parent_id == root.span_id
        assert service.args["shard"] == result.shard

    def test_unsampled_requests_leave_shards_dark(self):
        cluster, tracer, _clock = build_traced_cluster(sample=0.0)
        cluster.get("k1")
        summary = tracer.summary()
        # One root attempt at the cluster edge, nothing mid-stack.
        assert summary["requests"] == 1
        assert summary["sampled"] == 0

    def test_failover_records_replica_peeks_and_fallback(self):
        cluster, tracer, clock = build_traced_cluster()
        # Warm the key so ownership is established, then find its
        # primary and kill it for a window covering the next request.
        warm = cluster.get("hot")
        primary = warm.shard
        clock.advance(1.0)
        cluster.kill(primary, clock.now(), clock.now() + 10.0)
        clock.advance(0.5)
        result = cluster.get("hot")
        assert result.outcome in ("replica_hit", "miss", "hit")
        trace = list(tracer.kept)[-1]
        names = spans_by_name(trace)
        (root,) = names["cluster.get"]
        assert root.args["primary_down"] is True
        peeks = names.get("replica.peek", [])
        if peeks:               # replica probed before/instead of failover
            assert all(p.args["shard"] != primary for p in peeks)
        if "failover" in root.args:
            assert root.args["failover"] != primary
        assert root.args["served_by"] != primary

    def test_engine_ctx_joins_cluster_and_shard_spans(self):
        cluster, tracer, _clock = build_traced_cluster()
        root = tracer.start("request", key="'k'")
        cluster.get("k", ctx=root.ctx)
        root.end(outcome="hit")
        (trace,) = tracer.kept
        names = spans_by_name(trace)
        assert set(names) >= {"request", "cluster.get", "service.get"}
        (cluster_span,) = names["cluster.get"]
        assert cluster_span.parent_id == \
            names["request"][0].span_id

    def test_untraced_cluster_unchanged(self):
        clock = VirtualClock()
        cluster = build_cluster(lambda: LRU(20), shards=3,
                                config=ClusterConfig(replicas=1),
                                clock=clock)
        assert cluster.get("k1").outcome == "miss"
        assert cluster.get("k1").outcome == "hit"
