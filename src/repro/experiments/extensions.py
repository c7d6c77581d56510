"""Experiment X2 -- the algorithms this paper spawned.

The paper closes by envisioning LEGO-style eviction algorithms built
from lazy promotion and quick demotion.  Two such algorithms shipped
within a year: **S3-FIFO** (SOSP'23) and **SIEVE** (NSDI'24), both now
in production cache libraries.  This experiment compares them against
QD-LP-FIFO and the classic baselines on the corpus, reporting mean
miss-ratio reduction from FIFO per group and size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.metrics import reductions_from_baseline
from repro.analysis.tables import render_table
from repro.exec import ExecOptions, FailureReport
from repro.experiments.common import (
    QUICK,
    CorpusConfig,
    run_experiment_sweep,
    write_result,
)
from repro.sim.runner import LARGE_FRACTION, SMALL_FRACTION, RunRecord

POLICIES = ["FIFO", "LRU", "ARC", "QD-LP-FIFO", "S3-FIFO", "SIEVE",
            "W-TinyLFU"]


@dataclass
class ExtensionsResult:
    """Mean reduction-from-FIFO per (group, size, policy)."""

    records: List[RunRecord]
    means: Dict[Tuple[str, float, str], float]
    config: CorpusConfig
    #: cells lost to worker faults, if any (graceful degradation)
    failures: Optional[FailureReport] = None

    def mean(self, group: str, size_fraction: float, policy: str) -> float:
        """Mean reduction for one cell."""
        return self.means[(group, size_fraction, policy)]

    def render(self) -> str:
        headers = ["policy", "block/small", "block/large",
                   "web/small", "web/large"]
        body = []
        for policy in POLICIES[1:]:
            row = [policy]
            for group in ("block", "web"):
                for size in (SMALL_FRACTION, LARGE_FRACTION):
                    row.append(100.0 * self.means[(group, size, policy)])
            body.append(row)
        return render_table(
            headers, body,
            title="X2: S3-FIFO and SIEVE vs QD-LP-FIFO -- mean miss-ratio "
                  "reduction from FIFO (%)",
            precision=1)


def run(config: CorpusConfig = QUICK, workers: int = 0,
        options: Optional[ExecOptions] = None) -> ExtensionsResult:
    """Run the extensions comparison."""
    traces = config.build()
    sweep = run_experiment_sweep(POLICIES, traces, min_capacity=50,
                                 workers=workers, options=options)
    records = sweep.records
    group_of_trace = {t.name: t.group for t in traces}
    reductions = reductions_from_baseline(records, baseline="FIFO")

    means: Dict[Tuple[str, float, str], float] = {}
    for policy, cells in reductions.items():
        per_slice: Dict[Tuple[str, float], List[float]] = {}
        for (trace_name, size), value in cells.items():
            per_slice.setdefault(
                (group_of_trace[trace_name], size), []).append(value)
        for (group, size), values in per_slice.items():
            means[(group, size, policy)] = float(np.mean(values))

    result = ExtensionsResult(records=records, means=means, config=config,
                              failures=sweep.failures)
    write_result("extensions", result.render())
    return result


__all__ = ["ExtensionsResult", "POLICIES", "run"]
