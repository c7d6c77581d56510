"""TierConfig / HierarchyConfig validation and the unified registry."""

import dataclasses

import pytest

from repro.hierarchy import (
    CacheHierarchy,
    HierarchyConfig,
    TierConfig,
    dram_flash_config,
)
from repro.policies.registry import (
    SIZED_COUNTERPARTS,
    SIZED_REGISTRY,
    canonical_sized_name,
    make_sized,
    resolve_sized,
    sized_names,
)
from repro.core.base import EvictionPolicy


class TestSizedRegistry:
    @pytest.mark.parametrize("spelling, canonical", [
        ("Sized-LRU", "Sized-LRU"),
        ("sized_lru", "Sized-LRU"),
        ("lru", "Sized-LRU"),               # unsized name -> counterpart
        ("fifo", "Sized-FIFO"),
        ("clock", "Sized-2-bit-CLOCK"),     # unsized *alias* -> counterpart
        ("qd-lp-fifo", "Sized-QD-LP-FIFO"),
        ("qdlpfifo", "Sized-QD-LP-FIFO"),
        ("gdsf", "GDSF"),
        ("greedy-dual-size-frequency", "GDSF"),
        ("sized clock", "Sized-2-bit-CLOCK"),
        ("qd-gdsf", "Sized-QD-GDSF"),
    ])
    def test_aliases_and_spellings(self, spelling, canonical):
        assert resolve_sized(spelling).name == canonical
        assert canonical_sized_name(spelling) == canonical

    def test_every_sized_name_resolves_to_itself(self):
        for name in sized_names():
            assert resolve_sized(name).name == name

    def test_counterparts_target_real_sized_policies(self):
        for target in SIZED_COUNTERPARTS.values():
            assert target in SIZED_REGISTRY

    def test_did_you_mean(self):
        with pytest.raises(KeyError) as excinfo:
            resolve_sized("sized-lru2")
        assert "did you mean" in excinfo.value.args[0].lower()

    def test_unsized_policy_without_counterpart(self):
        with pytest.raises(KeyError) as excinfo:
            resolve_sized("ARC")
        assert "no size-aware counterpart" in excinfo.value.args[0]

    def test_make_sized_builds_policies(self):
        for name in sized_names():
            policy = make_sized(name, 1 << 20)
            assert isinstance(policy, EvictionPolicy)
            assert policy.capacity == 1 << 20

    def test_make_sized_param_passthrough(self):
        clock = make_sized("sized-3-bit-clock", 1 << 16)
        assert clock.bits == 3
        clock = make_sized("sized-2-bit-clock", 1 << 16, bits=1)
        assert clock.bits == 1

    def test_make_sized_rejects_bad_params(self):
        with pytest.raises(TypeError) as excinfo:
            make_sized("sized-lru", 1 << 16, bogus=1)
        assert "Sized-LRU" in str(excinfo.value)

    def test_make_sized_min_capacity(self):
        with pytest.raises(ValueError):
            make_sized("sized-qd-lp-fifo", 1)


class TestTierConfig:
    def test_frozen(self):
        tier = TierConfig(name="dram", capacity_bytes=1024)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tier.capacity_bytes = 2048

    def test_policy_resolved_to_canonical(self):
        tier = TierConfig(name="dram", capacity_bytes=1024, policy="lru")
        assert tier.policy == "Sized-LRU"

    def test_unknown_policy_fails_at_config_time(self):
        with pytest.raises(KeyError):
            TierConfig(name="dram", capacity_bytes=1024, policy="nope")

    @pytest.mark.parametrize("capacity", [0, -1, "big", None, 1.5])
    def test_capacity_validated(self, capacity):
        with pytest.raises((ValueError, TypeError)):
            TierConfig(name="dram", capacity_bytes=capacity)

    def test_dict_params_normalised_to_sorted_tuples(self):
        tier = TierConfig(name="dram", capacity_bytes=1024,
                          policy="sized-2-bit-clock",
                          policy_params={"bits": 3},
                          admission="frequency",
                          admission_params={"threshold": 3})
        assert tier.policy_params == (("bits", 3),)
        assert tier.policy_kwargs == {"bits": 3}
        assert tier.admission_kwargs == {"threshold": 3}

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            TierConfig(name="dram", capacity_bytes=1024, read_cost=-1.0)

    def test_bad_admission_rejected(self):
        with pytest.raises(ValueError):
            TierConfig(name="dram", capacity_bytes=1024, admission="lru")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            TierConfig(name="dram", capacity_bytes=1024, kind="tape")


class TestHierarchyConfig:
    def test_needs_a_tier(self):
        with pytest.raises(ValueError):
            HierarchyConfig(tiers=())

    def test_tier_names_unique(self):
        tier = TierConfig(name="x", capacity_bytes=1024)
        with pytest.raises(ValueError):
            HierarchyConfig(tiers=(tier, tier))

    def test_rejects_non_tierconfig(self):
        with pytest.raises(TypeError):
            HierarchyConfig(tiers=({"name": "dram"},))

    def test_ttl_and_jitter_ranges(self):
        tier = TierConfig(name="x", capacity_bytes=1024)
        with pytest.raises(ValueError):
            HierarchyConfig(tiers=(tier,), ttl=-1)
        with pytest.raises(ValueError):
            HierarchyConfig(tiers=(tier,), ttl_jitter=1.0)

    def test_dram_flash_helper(self):
        config = dram_flash_config(1024, 4096, flash_admission="ghost")
        assert config.tier_names == ("dram", "flash")
        assert config.tiers[0].policy == "Sized-QD-LP-FIFO"
        assert config.tiers[1].kind == "flash"
        assert config.tiers[1].admission == "ghost"
        assert config.tiers[1].write_cost > config.tiers[0].write_cost
        assert config.backend_read_cost > config.tiers[1].read_cost


class TestHierarchyConstruction:
    def test_rejects_unknown_kwargs(self):
        with pytest.raises(TypeError) as excinfo:
            CacheHierarchy(capacity=1024)
        assert "unexpected keyword" in str(excinfo.value)

    def test_rejects_no_config_no_legacy(self):
        with pytest.raises(TypeError):
            CacheHierarchy()

    def test_rejects_wrong_config_type(self):
        with pytest.raises(TypeError):
            CacheHierarchy(config={"tiers": []})
