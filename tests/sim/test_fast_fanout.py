"""Parallel fast-engine fan-out: worker processes, journal, cache.

``run_sweep`` routes fast-eligible cells through the process-isolating
executor when ``workers > 1``; these tests pin the contract down:
records (and their order) are identical to the serial path, the
``accelerated`` count still reflects every fast cell, checkpointed
fan-out runs resume from the journal, non-fast policies fall through
to the reference phase, and the workers share interning work through
the on-disk cache.
"""

import numpy as np
import pytest

from repro.sim.fast.interncache import InternCache
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
    opts = SimOptions(fast=True, intern_cache=InternCache(root=tmp_path))
    serial = run_sweep(POLICIES, traces, options=opts, workers=1)
    parallel = run_sweep(POLICIES, traces, options=opts, workers=2)
    assert _tuples(serial.records) == _tuples(parallel.records)
    assert parallel.accelerated == len(POLICIES) * len(traces) * 2
    assert parallel.ok


def test_fanout_shares_intern_cache(tmp_path):
    # Fresh traces: an already-interned Trace carries its in-memory
    # memo into the workers (it pickles with the payload), which would
    # legitimately short-circuit the disk cache.
    rng = np.random.default_rng(77)
    fresh = [Trace(name=f"cache{i}",
                   keys=(rng.zipf(1.3, 3000) % 400).astype(np.int64),
                   family="synthetic")
             for i in range(3)]
    cache = InternCache(root=tmp_path / "cache")
    opts = SimOptions(fast=True, intern_cache=cache)
    run_sweep(POLICIES, fresh, options=opts, workers=2)
    # One entry per trace, written by whichever worker got there first.
    assert len(list((tmp_path / "cache").glob("*.npz"))) == len(fresh)


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
