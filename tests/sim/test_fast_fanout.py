"""Parallel fast-engine fan-out: worker processes, journal, failures.

With ``workers > 1``, ``run_sweep`` sends fast-eligible cells through
the same process-isolating executor call as every other cell; these
tests pin the contract down: records (and their order) are identical
to the serial path, the ``accelerated`` count still reflects every
fast cell, checkpointed fan-out runs resume from the journal, non-fast
policies run the reference loop, and an engine error is a cell
failure under the sweep's retry policy.
"""

import multiprocessing

import numpy as np
import pytest

from repro.exec.retry import RetryPolicy
from repro.sim.fast.lhd import FastLHD
from repro.sim.options import SimOptions
from repro.sim.runner import run_sweep
from repro.traces.trace import Trace

POLICIES = ["LHD"]


@pytest.fixture(scope="module")
def traces():
    rng = np.random.default_rng(31)
    out = []
    for i in range(3):
        keys = (rng.zipf(1.3, 4000) % 500).astype(np.int64)
        out.append(Trace(name=f"fan{i}", keys=keys, family="synthetic"))
    return out


def _tuples(records):
    return [(r.policy, r.trace, r.size_label, r.capacity, r.requests,
             r.misses) for r in records]


def test_parallel_matches_serial(traces, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
    opts = SimOptions(fast=True)
    serial = run_sweep(POLICIES, traces, options=opts, workers=1)
    parallel = run_sweep(POLICIES, traces, options=opts, workers=2)
    assert _tuples(serial.records) == _tuples(parallel.records)
    assert parallel.accelerated == len(POLICIES) * len(traces) * 2
    assert parallel.ok


def test_non_fast_policy_falls_through(traces, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
    result = run_sweep(["LHD", "LIRS"], traces[:1],
                       options=SimOptions(fast=True), workers=2)
    assert result.ok
    by_policy = {r.policy for r in result.records}
    assert by_policy == {"LHD", "LIRS"}
    # Only the LHD cells (two sizes) ran on the fast path.
    assert result.accelerated == 2


def test_checkpointed_fanout_resumes(traces, tmp_path):
    opts = SimOptions(fast=True)
    first = run_sweep(POLICIES, traces, options=opts, workers=2,
                      checkpoint=True, runs_dir=tmp_path)
    assert first.run_id is not None
    assert first.accelerated == len(POLICIES) * len(traces) * 2

    resumed = run_sweep(POLICIES, traces, options=opts, workers=2,
                        resume=first.run_id, runs_dir=tmp_path)
    assert _tuples(resumed.records) == _tuples(first.records)
    # Everything came back from the journal: nothing re-ran.
    assert resumed.resumed == len(first.records)
    assert resumed.accelerated == 0


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched engine reaches workers only by fork")
def test_engine_error_is_a_cell_failure(traces, monkeypatch):
    def broken(self, ids, warmup=0):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(FastLHD, "replay", broken)
    result = run_sweep(["LHD", "LIRS"], traces, workers=2,
                       retry=RetryPolicy(max_attempts=2, base_delay=0.0))
    failed = {failure.key: failure for failure in result.failures}
    lhd_keys = {(trace.name, "LHD", size) for trace in traces
                for size in (0.001, 0.1)}
    assert set(failed) == lhd_keys
    assert all(failure.attempts == 2 and failure.kind == "error"
               for failure in failed.values())
    assert result.accelerated == 0
    assert {(r.trace, r.policy) for r in result.records} == {
        (trace.name, "LIRS") for trace in traces}
