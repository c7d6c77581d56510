"""Experiment F5 -- Fig. 5: QD-enhanced algorithms and QD-LP-FIFO.

The paper's central evaluation: for each of the five state-of-the-art
algorithms (ARC, LIRS, CACHEUS, LeCaR, LHD), its QD-enhanced variant,
and QD-LP-FIFO, compute the per-trace **miss-ratio reduction from
FIFO** and plot the percentile distribution across the corpus,
separately for block and web workloads at the small (0.1 %) and large
(10 %) cache sizes.

The paper's claims this experiment must reproduce in shape:

* QD-X beats X on almost all percentiles for every state-of-the-art X.
* The QD gap is larger (1) for weaker X, (2) at the large cache size,
  (3) on web workloads.
* QD-LP-FIFO achieves similar-or-better reductions than the state of
  the art (e.g. beats LIRS and LeCaR on average).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.metrics import (
    PERCENTILES,
    PercentileSummary,
    pairwise_reduction,
    reductions_from_baseline,
    summarize,
)
from repro.analysis.tables import render_percent, render_table
from repro.exec import ExecOptions, FailureReport
from repro.experiments.common import (
    QUICK,
    CorpusConfig,
    run_experiment_sweep,
    write_result,
)
from repro.policies.registry import SOTA_NAMES
from repro.sim.runner import LARGE_FRACTION, SMALL_FRACTION, RunRecord

#: Everything Fig. 5 plots, plus the LRU/FIFO baselines it normalises by.
POLICIES = (["FIFO", "LRU"]
            + SOTA_NAMES
            + [f"QD-{name}" for name in SOTA_NAMES]
            + ["QD-LP-FIFO"])

SIZES = (SMALL_FRACTION, LARGE_FRACTION)
GROUPS = ("block", "web")


@dataclass
class Fig5Result:
    """Reduction-from-FIFO percentile summaries per (group, size)."""

    records: List[RunRecord]
    #: (group, size_fraction, policy) -> summary of reductions from FIFO
    summaries: Dict[Tuple[str, float, str], PercentileSummary]
    #: "QD-X vs X" mean/max reductions of the QD variant vs its base
    qd_gains: Dict[str, Tuple[float, float]]
    #: ARC's mean reduction from LRU (the paper's 6.2 % yardstick)
    arc_vs_lru_mean: float
    config: CorpusConfig
    #: cells lost to worker faults, if any (graceful degradation)
    failures: Optional[FailureReport] = None

    def summary(self, group: str, size_fraction: float,
                policy: str) -> PercentileSummary:
        """Summary for one cell; ``KeyError`` if the cell wasn't run."""
        return self.summaries[(group, size_fraction, policy)]

    def render(self) -> str:
        sections = []
        for group in GROUPS:
            for size in SIZES:
                label = "small" if size == SMALL_FRACTION else "large"
                headers = (["policy"]
                           + [f"p{p}" for p in PERCENTILES]
                           + ["mean"])
                body = []
                for policy in POLICIES[1:]:  # skip FIFO: reduction is 0
                    cell = self.summaries.get((group, size, policy))
                    if cell is None:
                        continue
                    body.append(
                        [policy]
                        + [100.0 * value for _, value in cell.percentiles]
                        + [100.0 * cell.mean])
                sections.append(render_table(
                    headers, body,
                    title=(f"Fig. 5 ({group} workloads, {label} size): "
                           "miss-ratio reduction from FIFO (%), percentiles "
                           "across traces"),
                    precision=1))

        gain_rows = [[name,
                      render_percent(self.qd_gains[name][0]),
                      render_percent(self.qd_gains[name][1])]
                     for name in SOTA_NAMES]
        sections.append(render_table(
            ["algorithm", "mean QD reduction", "max QD reduction"],
            gain_rows,
            title="QD-X vs X: miss-ratio reduction of the QD-enhanced "
                  "variant relative to its base algorithm"))
        sections.append(
            "ARC mean miss-ratio reduction from LRU: "
            + render_percent(self.arc_vs_lru_mean)
            + "  (paper: 6.2% across its 5307 traces)")
        return "\n\n".join(sections)


def run(config: CorpusConfig = QUICK, workers: int = 0,
        options: Optional[ExecOptions] = None) -> Fig5Result:
    """Run the full Fig. 5 matrix and aggregate."""
    traces = config.build()
    sweep = run_experiment_sweep(POLICIES, traces, min_capacity=50,
                                 workers=workers, options=options)
    records = sweep.records

    group_of_trace = {t.name: t.group for t in traces}
    reductions = reductions_from_baseline(records, baseline="FIFO")

    summaries: Dict[Tuple[str, float, str], PercentileSummary] = {}
    for policy, cells in reductions.items():
        per_slice: Dict[Tuple[str, float], List[float]] = {}
        for (trace_name, size), value in cells.items():
            per_slice.setdefault(
                (group_of_trace[trace_name], size), []).append(value)
        for (group, size), values in per_slice.items():
            summaries[(group, size, policy)] = summarize(
                values, label=f"{policy}/{group}/{size}")

    qd_gains = {}
    for name in SOTA_NAMES:
        gains = pairwise_reduction(records, f"QD-{name}", name)
        qd_gains[name] = (float(np.mean(gains)), float(np.max(gains)))
    arc_vs_lru = pairwise_reduction(records, "ARC", "LRU")

    result = Fig5Result(
        records=records,
        summaries=summaries,
        qd_gains=qd_gains,
        arc_vs_lru_mean=float(np.mean(arc_vs_lru)),
        config=config,
        failures=sweep.failures,
    )
    write_result("fig5", result.render())
    return result


__all__ = ["Fig5Result", "POLICIES", "SIZES", "GROUPS", "run"]
