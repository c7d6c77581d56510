"""SimOptions: validation, and the removed keyword spellings."""

import pytest

from repro.obs import MetricsRegistry
from repro.policies.registry import make
from repro.sim.options import SimOptions
from repro.sim.runner import run_sweep
from repro.sim.simulator import simulate


class TestSimOptionsValidation:
    def test_defaults(self):
        opts = SimOptions()
        assert opts.warmup == 0
        assert opts.fast is None
        assert opts.listeners == ()
        assert opts.min_capacity == 10
        assert opts.metrics is None

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            SimOptions(warmup=-1)

    def test_min_capacity_floor(self):
        with pytest.raises(ValueError):
            SimOptions(min_capacity=0)

    def test_listeners_coerced_to_tuple(self):
        opts = SimOptions(listeners=[])
        assert opts.listeners == ()

    def test_resolved_fast(self):
        assert SimOptions().resolved_fast(True) is True
        assert SimOptions().resolved_fast(False) is False
        assert SimOptions(fast=False).resolved_fast(True) is False
        assert SimOptions(fast=True).resolved_fast(False) is True

    def test_metrics_excluded_from_equality(self):
        assert SimOptions(metrics=MetricsRegistry()) == SimOptions()


class TestSimulateShims:
    """``simulate`` takes its options only as a ``SimOptions``: the
    deprecated keywords and the positional warmup int are rejected."""

    def test_legacy_positional_warmup_int(self, small_trace):
        with pytest.raises(TypeError, match="SimOptions"):
            simulate(make("LRU", 50), small_trace, 500)

    def test_mixing_options_and_legacy_rejected(self, small_trace):
        with pytest.raises(TypeError, match="warmup"):
            simulate(make("LRU", 50), small_trace, SimOptions(), warmup=5)

    def test_positional_int_plus_keyword_warmup_rejected(self, small_trace):
        with pytest.raises(TypeError):
            simulate(make("LRU", 50), small_trace, 500, warmup=5)


class TestRunSweepShims:
    """``run_sweep`` takes its options only as a ``SimOptions``."""

    def test_legacy_positional_min_capacity_int(self, small_trace):
        with pytest.raises(TypeError, match="SimOptions"):
            run_sweep(["FIFO"], [small_trace], [0.1], 20)

    def test_run_sweep_rejects_warmup_and_listeners(self, small_trace):
        with pytest.raises(ValueError, match="warmup"):
            run_sweep(["FIFO"], [small_trace], [0.1],
                      SimOptions(warmup=100))

    def test_alias_names_canonicalized_in_records(self, small_trace):
        result = run_sweep(["clock2"], [small_trace], [0.1])
        assert {r.policy for r in result.records} == {"2-bit-CLOCK"}

    def test_mixing_options_and_legacy_rejected(self, small_trace):
        with pytest.raises(TypeError, match="min_capacity"):
            run_sweep(["FIFO"], [small_trace], [0.1], SimOptions(),
                      min_capacity=20)
