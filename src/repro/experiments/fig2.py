"""Experiment F2 -- Fig. 2: LP-FIFO vs LRU across the corpus.

Fig. 2(a-d) reports, per dataset and at the small (0.1 %) and large
(10 %) cache sizes, the fraction of traces on which FIFO-Reinsertion
(1-bit CLOCK) and 2-bit CLOCK achieve a lower miss ratio than LRU.
The paper's headline: FIFO-Reinsertion beats LRU on 9 (small) and 7
(large) of the 10 datasets, and 2-bit CLOCK widens the margin.

Fig. 2(e) illustrates *why*: under FIFO-Reinsertion, a newly-inserted
unpopular object is pushed toward eviction by not-yet-promoted older
objects as well as newer ones, so lazy promotion implies quick
demotion.  We quantify that directly by measuring the mean residency
of never-hit objects (the demotion age) under LRU vs FIFO-Reinsertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.comparison import WinFraction, datasets_won, win_fractions
from repro.analysis.tables import render_percent, render_table
from repro.core.clock import FIFOReinsertion
from repro.exec import ExecOptions, FailureReport
from repro.experiments.common import (
    QUICK,
    CorpusConfig,
    run_experiment_sweep,
    write_result,
)
from repro.policies.lru import LRU
from repro.sim.profiler import profile
from repro.sim.runner import LARGE_FRACTION, SMALL_FRACTION, RunRecord
from repro.traces.synthetic import one_hit_wonder_trace

POLICIES = ["LRU", "FIFO-Reinsertion", "2-bit-CLOCK"]


@dataclass
class Fig2Result:
    """Win fractions plus the Fig. 2(e) demotion-age measurement."""

    records: List[RunRecord]
    by_family: Dict[str, List[WinFraction]]   # challenger -> rows
    by_group: Dict[str, List[WinFraction]]
    demotion_age_lru: float
    demotion_age_fifo_reinsertion: float
    config: CorpusConfig
    #: cells lost to worker faults, if any (graceful degradation)
    failures: Optional[FailureReport] = None

    def datasets_won(self, challenger: str, size_fraction: float) -> int:
        """Datasets (families) where *challenger* beats LRU on most
        traces at the given size -- the paper's '9 of 10' statistic."""
        rows = [f for f in self.by_family[challenger]
                if f.size_fraction == size_fraction]
        return datasets_won(rows)

    def render(self) -> str:
        sections = []
        for challenger in POLICIES[1:]:
            headers = ["dataset", "size", "traces",
                       f"% favouring {challenger}"]
            body = []
            for frac in self.by_family[challenger]:
                body.append([
                    frac.slice_name,
                    "small" if frac.size_fraction == SMALL_FRACTION else "large",
                    frac.total,
                    render_percent(frac.win_fraction),
                ])
            num_families = len({f.slice_name
                                for f in self.by_family[challenger]})
            for size, label in ((SMALL_FRACTION, "small"),
                                (LARGE_FRACTION, "large")):
                body.append([
                    f"-> datasets won ({label})", label,
                    num_families,
                    f"{self.datasets_won(challenger, size)}/{num_families}",
                ])
            sections.append(render_table(
                headers, body,
                title=f"Fig. 2: fraction of traces where {challenger} "
                      "has a lower miss ratio than LRU"))
        sections.append(render_table(
            ["policy", "mean demotion age of never-hit objects (requests)"],
            [["LRU", self.demotion_age_lru],
             ["FIFO-Reinsertion", self.demotion_age_fifo_reinsertion]],
            title="Fig. 2(e): lazy promotion implies quick demotion",
            precision=1))
        return "\n\n".join(sections)


def _demotion_ages(seed: int = 7) -> Dict[str, float]:
    """Fig. 2(e): mean eviction age of never-hit objects.

    A Zipf-plus-one-hit-wonder workload supplies a steady stream of
    unpopular objects; the faster an algorithm evicts them, the lower
    their mean residency.
    """
    rng = np.random.default_rng(seed)
    keys = one_hit_wonder_trace(
        core_objects=2000, num_requests=40_000, alpha=0.9,
        ohw_fraction=0.3, rng=rng)
    capacity = 400
    ages = {}
    for policy in (LRU(capacity), FIFOReinsertion(capacity)):
        ages[policy.name] = profile(policy, keys).mean_zero_hit_age()
    return ages


def run(config: CorpusConfig = QUICK, workers: int = 0,
        options: Optional[ExecOptions] = None) -> Fig2Result:
    """Run the Fig. 2 study over the corpus."""
    traces = config.build()
    sweep = run_experiment_sweep(POLICIES, traces, min_capacity=50,
                                 workers=workers, options=options)
    records = sweep.records

    by_family = {}
    by_group = {}
    for challenger in POLICIES[1:]:
        by_family[challenger] = win_fractions(
            records, challenger, "LRU", by="family")
        by_group[challenger] = win_fractions(
            records, challenger, "LRU", by="group")

    ages = _demotion_ages()
    result = Fig2Result(
        records=records,
        by_family=by_family,
        by_group=by_group,
        demotion_age_lru=ages["LRU"],
        demotion_age_fifo_reinsertion=ages["FIFO-Reinsertion"],
        config=config,
        failures=sweep.failures,
    )
    write_result("fig2", result.render())
    return result


__all__ = ["Fig2Result", "POLICIES", "run"]
