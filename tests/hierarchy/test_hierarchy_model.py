"""Differential oracle for :class:`~repro.hierarchy.CacheHierarchy`.

:class:`ModelHierarchy` is a plain walk of the model the module
docstring of :mod:`repro.hierarchy.hierarchy` states, written here
without the hierarchy's shortcuts:

1. a lookup walks the tiers top-down, and the first tier holding the
   key serves it; every tier that misses first hears the lookup
   through its admission controller;
2. a lower-tier hit is copied into tier 0 when ``promote_on_hit`` is
   set, and a miss everywhere fetches from the backend and fills
   tier 0;
3. after *every* request, one top-down pass offers each tier's victims
   to the tier below, gated by its admission controller; the last
   tier's victims leave.

It builds its own policies (``make_sized``) and controllers
(``make_admission``) from the same config and hears evictions through
its own listener.  Seeded Zipf traces with Pareto sizes, fixed per key
or changing between requests, replay through both; after every request
the serving tier and each tier's ``used`` and ``demoted_out`` must
agree, and at the end every :class:`TierReport` field,
``backend_fetches`` and ``total_cost``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.base import CacheListener
from repro.hierarchy import (
    CacheHierarchy,
    HierarchyConfig,
    TierConfig,
    dram_flash_config,
    simulate_hierarchy,
)
from repro.hierarchy.admission import make_admission
from repro.hierarchy.simulate import TierReport
from repro.policies.registry import make_sized
from repro.sized.workloads import unique_bytes

from tests.conftest import resized_zipf_pareto_trace, zipf_pareto_trace

#: X7's DRAM policies and the three admission controllers.
DRAM_POLICIES = ("Sized-FIFO", "Sized-LRU", "Sized-2-bit-CLOCK",
                 "Sized-QD-LP-FIFO")
ADMISSIONS = ("admit-all", "ghost", "frequency")


class Victims(CacheListener):
    """Collects a policy's evictions with their sizes."""

    def __init__(self):
        self.evicted = []

    def on_evict(self, key, weight=1):
        self.evicted.append((key, weight))


class Level:
    """One tier of the model: a fresh policy, controller and counters."""

    def __init__(self, config: TierConfig):
        self.config = config
        self.policy = make_sized(config.policy, config.capacity_bytes,
                                 **config.policy_kwargs)
        self.admission = make_admission(config.admission,
                                        config.capacity_bytes,
                                        **config.admission_kwargs)
        self.victims = Victims()
        self.policy.add_listener(self.victims)
        self.counts = Counter()
        self.written = set()

    def write(self, key, size):
        self.counts["writes"] += 1
        self.counts["write_bytes"] += size
        if key not in self.written:
            self.written.add(key)
            self.counts["first_copy_bytes"] += size

    def report(self) -> TierReport:
        counts = self.counts
        first = counts["first_copy_bytes"]
        return TierReport(
            name=self.config.name,
            kind=self.config.kind,
            policy=self.policy.name,
            capacity_bytes=self.policy.capacity,
            used_bytes=self.policy.used,
            lookups=counts["hits"] + counts["misses"],
            hits=counts["hits"],
            misses=counts["misses"],
            hit_bytes=counts["hit_bytes"],
            miss_bytes=counts["miss_bytes"],
            demoted_in_admitted=counts["admitted"],
            demoted_in_refreshed=counts["refreshed"],
            demoted_in_rejected=counts["rejected"],
            demoted_out=counts["demoted_out"],
            writes=counts["writes"],
            write_bytes=counts["write_bytes"],
            write_amplification=(counts["write_bytes"] / first
                                 if first else 0.0),
        )


class ModelHierarchy:
    """The hierarchy's documented model as a plain walk."""

    def __init__(self, config: HierarchyConfig):
        self.config = config
        self.levels = [Level(tier) for tier in config.tiers]
        self.backend_fetches = 0
        self.total_cost = 0.0

    def request(self, key, size):
        served = None
        for level in self.levels:
            if key in level.policy:
                level.policy.request(key, size)
                level.counts["hits"] += 1
                level.counts["hit_bytes"] += size
                served = level
                break
            level.admission.record_lookup(key, size)
            level.counts["misses"] += 1
            level.counts["miss_bytes"] += size
        top = self.levels[0]
        if served is not None:
            self.total_cost += served.config.read_cost
            if served is not top and self.config.promote_on_hit:
                self.fill(top, key, size)
        else:
            self.backend_fetches += 1
            self.total_cost += self.config.backend_read_cost
            self.fill(top, key, size)
        self.cascade()
        return "miss" if served is None else served.config.name

    def fill(self, level, key, size):
        """A backend fill or promotion copy: no admission control."""
        if key in level.policy:
            level.policy.request(key, size)
        elif level.policy.admits(size):
            level.policy.request(key, size)
            if key in level.policy:
                level.write(key, size)
                self.total_cost += level.config.write_cost

    def cascade(self):
        for index, level in enumerate(self.levels):
            victims = level.victims.evicted
            level.victims.evicted = []
            below = (self.levels[index + 1]
                     if index + 1 < len(self.levels) else None)
            for key, size in victims:
                level.counts["demoted_out"] += 1
                if below is not None:
                    self.demote(below, key, size)

    def demote(self, level, key, size):
        if key in level.policy:
            level.policy.request(key, size)
            level.counts["refreshed"] += 1
        elif (level.policy.admits(size)
              and level.admission.admit(key, size)):
            level.policy.request(key, size)
            level.write(key, size)
            level.counts["admitted"] += 1
            self.total_cost += level.config.write_cost
        else:
            level.counts["rejected"] += 1


def budgets(trace):
    """DRAM and flash budgets that evict: 2 % and 10 % of the footprint."""
    footprint = unique_bytes(trace)
    return footprint // 50, footprint // 10


def replay(config, trace):
    """Replay *trace* through the hierarchy and the model in lockstep."""
    hierarchy = CacheHierarchy(config)
    model = ModelHierarchy(config)
    keys, sizes = trace
    for step, (key, size) in enumerate(zip(keys, sizes)):
        where = f"request {step} ({key!r}, {size})"
        assert hierarchy.request(key, size) == model.request(key, size), \
            where
        for tier, level in zip(hierarchy.tiers, model.levels):
            assert tier.used_bytes == level.policy.used, (tier.name, where)
            assert tier.stats.demoted_out == level.counts["demoted_out"], \
                (tier.name, where)
    result = simulate_hierarchy(config, trace)
    assert result.tiers == tuple(level.report() for level in model.levels)
    assert result.backend_fetches == model.backend_fetches
    assert hierarchy.backend_fetches == model.backend_fetches
    assert result.total_cost == model.total_cost
    assert hierarchy.total_cost == model.total_cost
    return model


TRACES = {
    "fixed": zipf_pareto_trace,
    "resized": resized_zipf_pareto_trace,
}


@pytest.mark.parametrize("sizes", sorted(TRACES))
@pytest.mark.parametrize("promote_on_hit", [True, False])
@pytest.mark.parametrize("admission", ADMISSIONS)
@pytest.mark.parametrize("policy", DRAM_POLICIES)
def test_two_tiers_replay_the_model(policy, admission, promote_on_hit,
                                    sizes):
    trace = TRACES[sizes](11)
    dram, flash = budgets(trace)
    config = dram_flash_config(dram, flash, dram_policy=policy,
                               flash_admission=admission,
                               promote_on_hit=promote_on_hit)
    model = replay(config, trace)
    dram_level, flash_level = model.levels
    assert dram_level.counts["demoted_out"] > 0
    assert flash_level.counts["admitted"] > 0
    assert flash_level.counts["hits"] > 0


@pytest.mark.parametrize("sizes", sorted(TRACES))
def test_three_tiers_replay_the_model(sizes):
    trace = TRACES[sizes](20231)
    footprint = unique_bytes(trace)
    config = HierarchyConfig(tiers=(
        TierConfig(name="dram", capacity_bytes=footprint // 50,
                   policy="Sized-QD-LP-FIFO"),
        TierConfig(name="flash", capacity_bytes=footprint // 20,
                   policy="Sized-FIFO", admission="ghost",
                   read_cost=25.0, write_cost=250.0, kind="flash"),
        TierConfig(name="disk", capacity_bytes=footprint // 5,
                   policy="Sized-LRU", admission="frequency",
                   read_cost=100.0, write_cost=50.0, kind="disk"),
    ), promote_on_hit=False)
    model = replay(config, trace)
    assert all(level.counts["hits"] > 0 for level in model.levels)
    assert model.levels[1].counts["demoted_out"] > 0


def test_instance_wrappers_see_every_hop():
    """Wrappers installed on the instances after construction, as a
    span recorder installs them, see every request, every lookup and
    every demotion."""
    trace = resized_zipf_pareto_trace(7)
    dram, flash = budgets(trace)
    hierarchy = CacheHierarchy(dram_flash_config(
        dram, flash, dram_policy="Sized-QD-LP-FIFO",
        flash_admission="ghost"))
    calls = Counter()

    def wrap(owner, method, label):
        inner = getattr(owner, method)

        def counted(*args, **kwargs):
            calls[label] += 1
            return inner(*args, **kwargs)

        setattr(owner, method, counted)

    wrap(hierarchy, "request", "request")
    for tier in hierarchy.tiers:
        for method in ("lookup", "insert", "demote_in"):
            wrap(tier, method, f"{tier.name}.{method}")
    request = hierarchy.request
    keys, sizes = trace
    for key, size in zip(keys, sizes):
        request(key, size)

    dram_tier, flash_tier = hierarchy.tiers
    assert calls["request"] == hierarchy.requests == len(keys)
    for tier in hierarchy.tiers:
        assert calls[f"{tier.name}.lookup"] == tier.stats.lookups > 0
        assert calls[f"{tier.name}.demote_in"] == tier.stats.demoted_in
    assert calls["flash.demote_in"] == dram_tier.stats.demoted_out > 0
    lower_hits = hierarchy.hits_by_tier["flash"]
    assert calls["dram.insert"] == hierarchy.backend_fetches + lower_hits
    assert calls["flash.insert"] == 0
