"""Experiment A5 -- the paper's "(not shown)" size-sweep claim (§4).

The paper: "when the cache size is too large, e.g., 80% of the number
of objects in the trace, adding QD may increase the miss ratio (not
shown)."  This experiment shows it: miss-ratio curves for 2-bit CLOCK
(the LP base), QD-LP-FIFO (LP + QD), LRU and ARC across cache sizes
from 0.1% to 80% of the unique objects, averaged over a corpus slice.

Expected shape: QD's advantage over the plain LP base is largest at
mid sizes and shrinks -- possibly inverting -- as the cache approaches
the working-set size, where evicting *anything* early is a mistake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.tables import render_table
from repro.experiments.common import QUICK, CorpusConfig, write_result
from repro.policies.registry import make
from repro.sim.simulator import simulate

POLICIES = ["LRU", "ARC", "2-bit-CLOCK", "QD-LP-FIFO"]
DEFAULT_FRACTIONS = (0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.8)


@dataclass
class SizeSweepResult:
    """Mean miss ratio per (policy, size fraction) over the slice."""

    fractions: Sequence[float]
    mean_miss_ratio: Dict[str, List[float]]   # policy -> per-fraction
    num_traces: int

    def qd_gain(self, fraction: float) -> float:
        """QD-LP-FIFO's relative gain over 2-bit CLOCK at *fraction*."""
        index = list(self.fractions).index(fraction)
        base = self.mean_miss_ratio["2-bit-CLOCK"][index]
        qd = self.mean_miss_ratio["QD-LP-FIFO"][index]
        if base <= 0:
            return 0.0
        return (base - qd) / base

    def render(self) -> str:
        headers = (["policy"]
                   + [f"{100 * f:g}%" for f in self.fractions])
        body = [[policy] + self.mean_miss_ratio[policy]
                for policy in POLICIES]
        gains = (["QD gain over 2-bit CLOCK"]
                 + [f"{100 * self.qd_gain(f):+.1f}%"
                    for f in self.fractions])
        table = render_table(
            headers, body + [gains],
            title=f"A5: mean miss ratio vs cache size "
                  f"({self.num_traces} traces); the paper's '(not shown)' "
                  "claim is the right-hand columns",
        )
        return table


def run(config: CorpusConfig = QUICK,
        fractions: Sequence[float] = DEFAULT_FRACTIONS) -> SizeSweepResult:
    """Run the size sweep over the corpus slice."""
    traces = config.build()
    sums: Dict[str, np.ndarray] = {
        policy: np.zeros(len(fractions)) for policy in POLICIES}
    for trace in traces:
        for j, fraction in enumerate(fractions):
            capacity = max(10, round(trace.num_unique * fraction))
            for policy_name in POLICIES:
                policy = make(policy_name, capacity)
                sums[policy_name][j] += simulate(policy, trace).miss_ratio
    result = SizeSweepResult(
        fractions=tuple(fractions),
        mean_miss_ratio={policy: list(values / len(traces))
                         for policy, values in sums.items()},
        num_traces=len(traces),
    )
    write_result("size_sweep", result.render())
    return result


__all__ = ["SizeSweepResult", "POLICIES", "DEFAULT_FRACTIONS", "run"]
