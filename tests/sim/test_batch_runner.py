"""BatchRunner + fast-path integration: one interned trace, many cells.

Covers the sharing contract (interning happens once per trace no matter
how many cells replay it), the fallback contract (``None`` for policies
without engines, reference results for everything), and the
``run_sweep``/``simulate``/``simulated_mrc`` wiring on top.
"""

import numpy as np
import pytest

from repro.analysis.mrc import simulated_mrc
from repro.policies.registry import make
from repro.sim.fast.batch import BatchRunner
from repro.sim.options import SimOptions
from repro.sim.runner import run_sweep
from repro.sim.simulator import simulate
from repro.traces.synthetic import zipf_trace
from repro.traces.trace import Trace, from_keys


@pytest.fixture()
def trace():
    rng = np.random.default_rng(5)
    return Trace(name="t0", keys=zipf_trace(400, 4000, 1.1, rng))


def test_outcomes_match_reference_simulate(trace):
    runner = BatchRunner()
    for capacity in (16, 33, 100):
        outcome = runner.run("LHD", trace, capacity)
        assert outcome is not None
        reference = simulate(make("LHD", capacity), trace)
        assert (outcome.hits, outcome.misses) == (
            reference.hits, reference.misses)
        assert outcome.requests == trace.num_requests
        assert outcome.miss_ratio == reference.miss_ratio


def test_unsupported_policy_returns_none(trace):
    runner = BatchRunner()
    assert runner.run("LIRS", trace, 50) is None
    assert runner.run("LRU", trace, 50) is None
    assert runner.run("QD-LP-FIFO", trace, 50) is None
    assert runner.run("QD-LHD", trace, 50) is None
    assert runner.run_policy(make("QD-LHD", 50), trace) is None
    assert runner.run_policy(make("LHD", 50), trace) is not None


def test_stale_policy_instance_returns_none(trace):
    runner = BatchRunner()
    policy = make("LHD", 50)
    policy.request(1)
    assert runner.run_policy(policy, trace) is None


def test_trace_interned_exactly_once(trace):
    runner = BatchRunner()
    assert trace._interned is None
    runner.run("LHD", trace, 20)
    first = trace._interned
    assert first is not None
    runner.run("LHD", trace, 60)
    BatchRunner().run("LHD", trace, 20)   # fresh runner, same cache
    assert trace._interned is first


def test_plain_list_interned_once_per_runner():
    keys = [1, 2, 3, 1, 2, 4] * 200
    runner = BatchRunner()
    runner.run("LHD", keys, 3)
    first = runner._interned
    assert first is not None
    runner.run("LHD", keys, 5)
    assert runner._interned is first


def test_fresh_lists_never_replay_stale_ids():
    """Each list gets its own interning even when an earlier list was
    freed and a new one took its ``id()``."""
    rng = np.random.default_rng(8)
    runner = BatchRunner()
    arrays, misses = [], []
    for _ in range(200):
        keys = rng.integers(0, 500, 3000)
        cell = keys.tolist()
        misses.append(runner.run("LHD", cell, 50).misses)
        del cell   # the next list can take this one's id()
        arrays.append(keys)
    assert misses == [simulate(make("LHD", 50), keys).misses
                      for keys in arrays]


def test_warmup_passthrough(trace):
    runner = BatchRunner()
    outcome = runner.run("LHD", trace, 64, warmup=500)
    reference = simulate(make("LHD", 64), trace, SimOptions(warmup=500))
    assert (outcome.hits, outcome.misses) == (
        reference.hits, reference.misses)
    assert outcome.requests == trace.num_requests - 500


# ----------------------------------------------------------------------
# Integration: the callers routed through the fast path
# ----------------------------------------------------------------------

def test_run_sweep_fast_matches_reference(trace):
    policies = ["LHD", "QD-LHD", "LIRS"]
    fractions = (0.01, 0.1)
    fast = run_sweep(policies, [trace], size_fractions=fractions)
    slow = run_sweep(policies, [trace], size_fractions=fractions,
                     options=SimOptions(fast=False))
    assert fast.records == slow.records
    assert fast.ok and slow.ok
    # LHD at both sizes rides the fast path; QD-LHD and LIRS cannot.
    assert fast.accelerated == 2
    assert slow.accelerated == 0
    assert fast.resumed == 0


def test_simulate_fast_flag_matches_reference(trace):
    for capacity in (16, 64):
        fast = simulate(make("LHD", capacity), trace,
                        SimOptions(fast=True))
        slow = simulate(make("LHD", capacity), trace)
        assert (fast.hits, fast.misses) == (slow.hits, slow.misses)


def test_simulate_fast_falls_back_for_unsupported(trace):
    for name in ("LIRS", "QD-LHD"):
        fast = simulate(make(name, 64), trace, SimOptions(fast=True))
        slow = simulate(make(name, 64), trace)
        assert (fast.hits, fast.misses) == (slow.hits, slow.misses)


def test_simulate_fast_leaves_iterators_to_reference_path():
    keys = [1, 2, 1, 3, 1, 2] * 50
    result = simulate(make("LHD", 2), iter(keys), SimOptions(fast=True))
    assert result.requests == len(keys)
    reference = simulate(make("LHD", 2), keys)
    assert (result.hits, result.misses) == (
        reference.hits, reference.misses)


def test_simulated_mrc_matches_reference():
    trace = from_keys([k % 37 for k in range(1500)], name="mrc")
    sizes = [2, 5, 11, 23]
    curve = simulated_mrc(lambda c: make("LHD", c), trace, sizes)
    for size, ratio in zip(curve.sizes, curve.miss_ratios):
        reference = simulate(make("LHD", size), trace)
        assert ratio == reference.miss_ratio
