"""Span integrity when fast cells fan out across worker processes.

With ``workers > 1`` fast cells run in subprocesses like every other
cell, and the parent's :class:`SpanTracer` records a ``cell`` span per
cell with its ``attempt`` spans.  These tests pin down that the
exported ``trace.json`` stays a valid Chrome trace with globally
unique span ids -- i.e. the fan-out never hands two spans the same id
or corrupts the document.
"""

import json

import numpy as np
import pytest

from repro.obs import SpanTracer, validate_chrome_trace
from repro.sim.options import SimOptions
from repro.sim.runner import run_sweep
from repro.traces.trace import Trace


@pytest.fixture(scope="module")
def traces():
    rng = np.random.default_rng(29)
    out = []
    for index in range(3):
        keys = (rng.zipf(1.3, 4000) % 500).astype(np.int64)
        out.append(Trace(name=f"span{index}", keys=keys,
                         family="synthetic"))
    return out


def fanout_sweep(traces, tmp_path, workers):
    opts = SimOptions(fast=True, tracer=SpanTracer())
    result = run_sweep(["LHD"], traces,
                       size_fractions=(0.05, 0.1), options=opts,
                       workers=workers, checkpoint=True,
                       run_id=f"fanout-w{workers}", runs_dir=tmp_path)
    assert result.ok
    return opts.tracer, tmp_path / f"fanout-w{workers}" / "trace.json"


class TestFanoutSpanIntegrity:
    def test_span_ids_unique_across_fanout(self, traces, tmp_path):
        tracer, _path = fanout_sweep(traces, tmp_path, workers=2)
        ids = [span.span_id for span in tracer.spans()]
        assert len(ids) == len(set(ids))
        # Every fanned-out fast cell is an exec cell with its attempt.
        cells = tracer.spans(cat="cell")
        assert len(cells) == 6
        assert {cell.args["path"] for cell in cells} == {"exec"}
        cell_ids = {cell.span_id for cell in cells}
        attempts = tracer.spans(cat="attempt")
        assert sorted(a.parent_id for a in attempts) == sorted(cell_ids)

    def test_chrome_trace_schema_valid_after_fanout(self, traces,
                                                    tmp_path):
        _tracer, path = fanout_sweep(traces, tmp_path, workers=3)
        doc = json.loads(path.read_text())
        validate_chrome_trace(doc)    # raises on a malformed document
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        ids = [e["args"]["span_id"] for e in events]
        assert len(ids) == len(set(ids))
        assert all(e["dur"] >= 0 for e in events)
        assert sum(e["name"] == "cell" for e in events) == 6
