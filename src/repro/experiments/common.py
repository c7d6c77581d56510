"""Shared experiment plumbing: corpus configs and result persistence.

Experiments accept a :class:`CorpusConfig` so the same code serves three
tiers:

* ``TINY``  -- seconds; used by integration tests.
* ``QUICK`` -- a couple of minutes for the whole bench suite; the
  default for ``benchmarks/``.
* ``FULL``  -- the complete synthetic corpus (100 traces at full
  length); what EXPERIMENTS.md numbers are quoted from when feasible.

Rendered experiment output is also written under ``results/`` (or
``$REPRO_RESULTS_DIR``) so benchmark runs leave artifacts behind even
when pytest captures stdout.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence

from repro.exec import ExecOptions
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import SpanTracer
from repro.obs.timeseries import TimeSeriesRecorder
from repro.sim.options import SimOptions
from repro.sim.runner import SweepResult, run_sweep
from repro.traces.corpus import build_corpus
from repro.traces.trace import Trace


@dataclass(frozen=True)
class CorpusConfig:
    """Parameters defining a deterministic corpus instance."""

    scale: float = 1.0
    traces_per_family: Optional[int] = None
    seed: int = 42
    families: Optional[tuple] = None

    def build(self) -> List[Trace]:
        """Materialise the corpus."""
        return build_corpus(
            scale=self.scale,
            traces_per_family=self.traces_per_family,
            seed=self.seed,
            families=list(self.families) if self.families else None,
        )

    def scaled(self, **changes) -> "CorpusConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


# Trace *length* is kept at scale 1.0 for QUICK: the paper's dynamics
# (probation lifetimes, reuse windows) depend on absolute trace and
# cache sizes, so the fast tier reduces the trace *count*, not length.
TINY = CorpusConfig(scale=0.1, traces_per_family=1)
QUICK = CorpusConfig(scale=1.0, traces_per_family=2)
FULL = CorpusConfig(scale=1.0)


def results_dir() -> Path:
    """Directory experiment artifacts are written to."""
    root = os.environ.get("REPRO_RESULTS_DIR")
    if root:
        path = Path(root)
    else:
        path = Path(__file__).resolve().parents[3] / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_result(name: str, text: str) -> Path:
    """Persist a rendered experiment under ``results/<name>.txt``."""
    path = results_dir() / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def default_workers() -> int:
    """Worker processes for sweep parallelism (half the cores)."""
    override = os.environ.get("REPRO_WORKERS")
    if override:
        return max(1, int(override))
    return max(1, (os.cpu_count() or 2) // 2)


def run_experiment_sweep(
    policy_names: Sequence[str],
    traces: Sequence[Trace],
    *,
    min_capacity: int = 50,
    workers: int = 0,
    options: Optional[ExecOptions] = None,
    metrics: Optional[MetricsRegistry] = None,
    timeseries: Optional[TimeSeriesRecorder] = None,
    tracer: Optional[SpanTracer] = None,
) -> SweepResult:
    """Run an experiment's matrix through the fault-tolerant runner.

    This is the one funnel every sweep-shaped experiment goes through:
    it applies the default worker count, threads the caller's
    :class:`~repro.exec.ExecOptions` (retry/timeout knobs, checkpoint
    journal, resume, fault injection) down to
    :func:`~repro.sim.runner.run_sweep`, and narrates checkpoint ids
    and cell failures on stderr so degraded runs are visible even when
    callers only consume ``result.records``.  *timeseries* and
    *tracer* opt the sweep into windowed per-cell curves and
    sweep→cell→attempt span tracing (journalled / written as
    ``trace.json`` when checkpointing is on).  With more than one
    worker every cell, fast-engine cells included, fans out across
    worker processes, each interning its own trace.
    """
    options = options or ExecOptions()
    workers = workers or default_workers()
    result = run_sweep(
        policy_names, traces,
        options=SimOptions(min_capacity=min_capacity, metrics=metrics,
                           timeseries=timeseries, tracer=tracer),
        workers=workers,
        **options.sweep_kwargs(),
    )
    if result.run_id:
        print(f"sweep checkpoint: run id {result.run_id} "
              f"(resume with --resume {result.run_id})", file=sys.stderr)
    if not result.ok:
        print(f"sweep degraded: {result.failures.summary()}",
              file=sys.stderr)
    return result


__all__ = [
    "CorpusConfig",
    "TINY",
    "QUICK",
    "FULL",
    "results_dir",
    "write_result",
    "default_workers",
    "run_experiment_sweep",
]
