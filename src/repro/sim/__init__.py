"""Trace-driven simulation substrate."""

from repro.sim.options import SimOptions
from repro.sim.profiler import ProfileResult, profile
from repro.sim.runner import (
    LARGE_FRACTION,
    SMALL_FRACTION,
    RunRecord,
    SweepResult,
    run_matrix,
    run_one,
    run_sweep,
)
from repro.sim.simulator import SimResult, miss_ratio, simulate

__all__ = [
    "SimOptions",
    "ProfileResult",
    "profile",
    "LARGE_FRACTION",
    "SMALL_FRACTION",
    "RunRecord",
    "SweepResult",
    "run_matrix",
    "run_one",
    "run_sweep",
    "SimResult",
    "miss_ratio",
    "simulate",
]
