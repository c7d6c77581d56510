"""Sweep runner: (policy x trace x cache size) simulation matrices.

The paper's experiments all have the same shape -- run a set of
algorithms over a corpus of traces at the "small" (0.1 % of unique
objects) and "large" (10 %) cache sizes and aggregate the per-trace
miss ratios.  :func:`run_sweep` executes that matrix through the
fault-tolerant execution layer (:mod:`repro.exec`): every
(trace, policy, size) cell is an independent task, so a worker crash,
exception, or timeout fails that cell only; cells retry per a
:class:`~repro.exec.retry.RetryPolicy`; and with checkpointing enabled
every completed cell is journalled to ``runs/<run-id>/journal.jsonl``
so an interrupted sweep resumes losslessly via ``resume=<run-id>``.

Results are always returned in deterministic (trace, size, policy)
order regardless of worker scheduling, retries, or resume.
:func:`run_matrix` is the records-only convenience wrapper the
analysis layer consumes.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import OfflinePolicy
from repro.exec.executor import Task, run_tasks
from repro.exec.faults import FaultPlan
from repro.exec.journal import Journal
from repro.exec.report import FailureReport
from repro.exec.retry import NO_RETRY, RetryPolicy
from repro.obs.metrics import DEFAULT_DURATION_BUCKETS, MetricsRegistry
from repro.policies.registry import make, resolve
from repro.sim.fast.batch import BatchRunner
from repro.sim.fast.dispatch import has_fast_engine
from repro.sim.options import SimOptions, resolve_options
from repro.sim.simulator import simulate
from repro.traces.trace import Trace

#: The paper's two evaluation points: 0.1 % and 10 % of unique objects.
SMALL_FRACTION = 0.001
LARGE_FRACTION = 0.1
SIZE_LABELS = {SMALL_FRACTION: "small", LARGE_FRACTION: "large"}


@dataclass(frozen=True)
class RunRecord:
    """One (policy, trace, size) simulation outcome."""

    policy: str
    trace: str
    family: str
    group: str
    size_fraction: float
    capacity: int
    requests: int
    misses: int

    @property
    def miss_ratio(self) -> float:
        """Miss ratio of this run."""
        if self.requests == 0:
            return 0.0
        return self.misses / self.requests

    @property
    def size_label(self) -> str:
        """'small' / 'large' for the paper's two sizes, else the number."""
        return SIZE_LABELS.get(self.size_fraction, str(self.size_fraction))


def _cell_capacity(policy_name: str, trace: Trace, size_fraction: float,
                   min_capacity: int) -> int:
    """The cache size of one cell: the trace's fraction, floored at
    *min_capacity* and at the policy's own minimum."""
    capacity = trace.cache_size(size_fraction, minimum=min_capacity)
    return max(capacity, resolve(policy_name).min_capacity)


def _cell_record(policy_name: str, trace: Trace, size_fraction: float,
                 capacity: int, requests: int, misses: int) -> RunRecord:
    return RunRecord(
        policy=policy_name,
        trace=trace.name,
        family=trace.family,
        group=trace.group,
        size_fraction=size_fraction,
        capacity=capacity,
        requests=requests,
        misses=misses,
    )


def run_one(policy_name: str, trace: Trace, size_fraction: float,
            min_capacity: int = 10) -> RunRecord:
    """Simulate one policy over one trace at one relative cache size."""
    name = resolve(policy_name).name
    capacity = _cell_capacity(name, trace, size_fraction, min_capacity)
    result = simulate(make(name, capacity), trace)
    return _cell_record(name, trace, size_fraction, capacity,
                        result.requests, result.misses)


# ----------------------------------------------------------------------
# Cell tasks for the execution layer
# ----------------------------------------------------------------------

def cell_key(trace_name: str, policy_name: str,
             size_fraction: float) -> Tuple[str, str, float]:
    """Journal/report identity of one sweep cell."""
    return (trace_name, policy_name, float(size_fraction))


def _record_curves(timeseries, mask: np.ndarray, policy_name: str,
                   trace: Trace, size_fraction: float) -> None:
    """One cell's windowed request/hit/miss curves from its hit mask,
    labelled (policy, trace, size)."""
    timeseries.record_mask(mask, policy=policy_name, trace=trace.name,
                           size=str(size_fraction))


def _run_cell(payload, timeseries=None, fast=False) -> RunRecord:
    """Execution-layer task body: simulate one cell.

    With *fast* a policy that has a fast engine replays on it (how a
    fanned-out sweep serves its fast cells); an engine error is then
    the cell's failure, like any other.  With a
    :class:`~repro.obs.timeseries.TimeSeriesRecorder` the reference
    loop also collects the per-request hit mask, from which the cell
    records the same curves a fast cell records from its engine's mask.
    """
    if fast:
        record = _fast_cell(payload)
        if record is not None:
            return record
    trace, policy_name, size_fraction, min_capacity = payload
    if timeseries is None:
        return run_one(policy_name, trace, size_fraction, min_capacity)
    capacity = _cell_capacity(policy_name, trace, size_fraction,
                              min_capacity)
    policy = make(policy_name, capacity)
    keys = trace.as_list()
    if isinstance(policy, OfflinePolicy):
        policy.prepare(keys)
    mask = np.fromiter(map(policy.request, keys), dtype=bool,
                       count=len(keys))
    _record_curves(timeseries, mask, policy_name, trace, size_fraction)
    return _cell_record(policy_name, trace, size_fraction, capacity,
                        policy.stats.requests, policy.stats.misses)


def _fast_cell(payload, timeseries=None) -> Optional[RunRecord]:
    """One cell through the shared-trace fast engines, or ``None``.

    Produces a record identical to :func:`run_one`'s (the engines'
    hit/miss sequences are bit-identical to the reference policies);
    the capacity derivation matches field for field.  With a
    :class:`~repro.obs.timeseries.TimeSeriesRecorder` the engine's hit
    mask additionally yields the cell's windowed request/hit/miss
    curves, labelled (policy, trace, size).
    """
    trace, policy_name, size_fraction, min_capacity = payload
    if not has_fast_engine(policy_name):
        return None
    capacity = _cell_capacity(policy_name, trace, size_fraction,
                              min_capacity)
    mask_sink = None
    if timeseries is not None:
        def mask_sink(mask):
            _record_curves(timeseries, mask, policy_name, trace,
                           size_fraction)
    outcome = BatchRunner().run(policy_name, trace, capacity,
                                mask_sink=mask_sink)
    if outcome is None:
        return None
    return _cell_record(policy_name, trace, size_fraction, capacity,
                        outcome.requests, outcome.misses)


def _cell_tasks(policy_names: Sequence[str], traces: Sequence[Trace],
                size_fractions: Sequence[float],
                min_capacity: int) -> List[Task]:
    """The matrix as independent tasks, in canonical result order."""
    tasks = []
    for trace in traces:
        for fraction in size_fractions:
            for name in policy_names:
                tasks.append(Task(
                    key=cell_key(trace.name, name, fraction),
                    payload=(trace, name, float(fraction), min_capacity)))
    return tasks


def _record_to_json(record: RunRecord) -> dict:
    return asdict(record)


def _record_from_json(payload: dict) -> RunRecord:
    return RunRecord(**payload)


@dataclass
class SweepResult:
    """Everything one sweep produced, including what it lost.

    ``records`` holds the successful cells in deterministic
    (trace, size, policy) order; ``failures`` describes cells whose
    retries were exhausted; ``run_id`` is set when checkpointing was on
    (pass it back as ``resume=`` to continue an interrupted run);
    ``resumed`` counts cells restored from the journal rather than
    simulated; ``accelerated`` counts cells served by the vectorized
    engines instead of the reference simulator.
    """

    records: List[RunRecord]
    failures: FailureReport
    run_id: Optional[str] = None
    resumed: int = 0
    accelerated: int = 0
    #: the registry passed via ``SimOptions.metrics``, after the sweep
    #: recorded its counters/timings into it (None when not supplied)
    metrics: Optional["MetricsRegistry"] = None

    @property
    def ok(self) -> bool:
        """True when every cell completed."""
        return self.failures.ok


def _resolve_sweep_options(options: Optional[SimOptions]) -> SimOptions:
    """``run_sweep``'s options, rejecting the ``simulate``-only fields."""
    opts = resolve_options(options)
    if opts.warmup:
        raise ValueError("run_sweep does not support warmup")
    if opts.listeners:
        raise ValueError("run_sweep does not support listeners")
    return opts


def run_sweep(
    policy_names: Sequence[str],
    traces: Iterable[Trace],
    size_fractions: Sequence[float] = (SMALL_FRACTION, LARGE_FRACTION),
    options: Optional[SimOptions] = None,
    workers: int = 1,
    retry: Optional[RetryPolicy] = None,
    resume: Optional[str] = None,
    run_id: Optional[str] = None,
    checkpoint: bool = False,
    runs_dir=None,
    fault_plan: Optional[FaultPlan] = None,
) -> SweepResult:
    """Run the (policy x trace x size) matrix fault-tolerantly.

    *options* is a :class:`~repro.sim.options.SimOptions` (the
    defaults when ``None``); its ``min_capacity`` and ``fast`` fields
    set the size floor and the path.  Policy names accept the registry's aliases ("sieve", "clock2", ...) and
    are canonicalised before the matrix is built.

    With ``fast=True`` (the default) every cell whose policy has a
    vectorized engine replays on it.  With ``workers <= 1`` (or an
    ``options.timeseries``, whose recorder lives in this process) those
    cells run in-process ahead of the others, each trace interned once
    and reused across all of its (policy, size) cells.  With
    ``workers > 1`` they fan out with every other cell through the one
    execution-layer call: a worker replays the cell on its engine under
    the sweep's retry policy and per-task timeout, and an engine error
    is a cell failure like any other.  Fast cells are journalled like
    any other completed cell, so checkpoint/resume semantics are
    unchanged and ``accelerated`` counts them either way.  Fault
    injection plans disable the fast path: every cell then replays the
    reference loop.

    ``workers > 1`` gives each cell attempt its own worker process --
    simulation is pure CPU-bound Python, so threads would not help, and
    per-attempt processes additionally isolate crashes and enforce the
    retry policy's per-task timeout.  Cell failures do not raise; they
    are reported in the returned :class:`SweepResult`.

    Checkpointing is enabled by ``checkpoint=True``, an explicit
    ``run_id``, or ``resume=<run-id>`` (which loads the journal, skips
    its finished cells, and appends to it).  Resuming validates that
    the sweep's shape (policies, traces, sizes, min_capacity) matches
    the journal's; a mismatch raises ``ValueError``.

    Temporal observability is opt-in via *options*: with
    ``options.timeseries`` set, every cell simulated in this process
    records windowed request/hit/miss curves labelled
    (policy, trace, size), derived from its hit mask (the fast engine's,
    or the reference loop's), and the rows are journalled as a
    ``timeseries`` line.  With ``workers > 1`` the reference cells run
    in worker processes and record none.  Under a fault plan no cell
    records: an injected delay can fail an attempt after it ran, and
    its retry would record the cell twice.  With
    ``options.tracer`` set, the sweep records nested
    sweep→cell→attempt spans and, when checkpointing, writes
    ``trace.json`` (Chrome trace-event JSON, loadable in Perfetto)
    next to the journal.
    """
    opts = _resolve_sweep_options(options)
    min_capacity = opts.min_capacity
    fast = opts.resolved_fast(True)
    policy_names = [resolve(n).name for n in policy_names]
    trace_list = list(traces)
    fractions = [float(f) for f in size_fractions]
    tasks = _cell_tasks(policy_names, trace_list, fractions, min_capacity)

    meta = {
        "policies": list(policy_names),
        "traces": [t.name for t in trace_list],
        "size_fractions": fractions,
        "min_capacity": min_capacity,
    }
    journal: Optional[Journal] = None
    completed: Dict[Tuple, RunRecord] = {}
    if resume:
        journal = Journal.open(resume, root=runs_dir)
        state = journal.load()
        if state.meta is not None and state.meta != meta:
            journal.close()
            raise ValueError(
                f"run {resume!r} was checkpointed for a different sweep "
                f"(policies/traces/sizes/min_capacity differ); refusing "
                f"to resume")
        completed = {key: _record_from_json(payload)
                     for key, payload in state.results.items()}
    elif checkpoint or run_id:
        journal = Journal.create(run_id=run_id, root=runs_dir, meta=meta)

    registry = opts.metrics
    fast_cell_seconds = None
    cells_total = None
    if registry is not None:
        fast_cell_seconds = registry.histogram(
            "sweep_cell_seconds", "Wall time of vectorized sweep cells",
            DEFAULT_DURATION_BUCKETS, path="fast")
        cells_total = {
            path: registry.counter(
                "sweep_cells_total", "Sweep cells completed by path",
                path=path)
            for path in ("fast", "exec", "resumed")}
        cells_total["resumed"].inc(len(completed))

    tracer = opts.tracer
    sweep_span = (tracer.span(
        "sweep", cat="sweep", policies=list(policy_names),
        traces=[t.name for t in trace_list], sizes=fractions)
        if tracer is not None else nullcontext())

    accelerated = 0
    try:
        with sweep_span:
            engine = fast and fault_plan is None
            # With workers > 1 the fast cells join the one fan-out and
            # replay on their engine in a worker; a recorder lives in
            # this process, so a sweep with one keeps them here.
            engine_in_workers = (engine and workers > 1
                                 and opts.timeseries is None)
            if engine and not engine_in_workers:
                fast_todo = [task for task in tasks
                             if task.key not in completed
                             and has_fast_engine(task.payload[1])]
                for task in fast_todo:
                    started = time.perf_counter()
                    cell_start = tracer.now() if tracer is not None else 0.0
                    record = _fast_cell(task.payload, opts.timeseries)
                    if record is None:
                        continue
                    completed[task.key] = record
                    accelerated += 1
                    if tracer is not None:
                        trace_name, policy_name, fraction = task.key
                        tracer.add_span(
                            "cell", cell_start, tracer.now(), cat="cell",
                            trace=trace_name, policy=policy_name,
                            size=fraction, path="fast")
                    if registry is not None:
                        fast_cell_seconds.observe(
                            time.perf_counter() - started)
                        cells_total["fast"].inc()
                    if journal is not None:
                        journal.record_result(task.key,
                                              _record_to_json(record))
            cell_fn = _run_cell
            if engine_in_workers:
                cell_fn = partial(_run_cell, fast=True)
            elif opts.timeseries is not None and workers <= 1 \
                    and fault_plan is None:
                cell_fn = partial(_run_cell, timeseries=opts.timeseries)
            outcome = run_tasks(
                tasks, cell_fn,
                workers=workers,
                retry=retry if retry is not None else NO_RETRY,
                journal=journal,
                completed=completed,
                fault_plan=fault_plan,
                encode=_record_to_json,
                registry=registry,
                tracer=tracer,
            )
        if cells_total is not None:
            cells_total["exec"].inc(outcome.executed - len(outcome.failures))
        if journal is not None:
            if registry is not None:
                journal.record_metrics(registry.snapshot())
            if opts.timeseries is not None:
                journal.record_timeseries(opts.timeseries.to_rows())
            if tracer is not None:
                tracer.write_chrome_trace(journal.directory / "trace.json")
    finally:
        if journal is not None:
            journal.close()

    # Cells this process served on an engine were handed to run_tasks
    # as completed, so its resumed count includes them.
    resumed = outcome.resumed - accelerated
    if engine_in_workers:
        accelerated = sum(1 for key in outcome.results
                          if key not in completed
                          and has_fast_engine(key[1]))
    records = [outcome.results[task.key] for task in tasks
               if task.key in outcome.results]
    return SweepResult(
        records=records,
        failures=outcome.failures,
        run_id=journal.run_id if journal is not None else None,
        resumed=resumed,
        accelerated=accelerated,
        metrics=registry,
    )


def run_matrix(
    policy_names: Sequence[str],
    traces: Iterable[Trace],
    size_fractions: Sequence[float] = (SMALL_FRACTION, LARGE_FRACTION),
    options: Optional[SimOptions] = None,
    workers: int = 1,
    **sweep_kwargs,
) -> List[RunRecord]:
    """Run the full matrix and return the records.

    Convenience wrapper over :func:`run_sweep`; extra keyword arguments
    (``retry``, ``resume``, ``run_id``, ``checkpoint``, ``runs_dir``,
    ``fault_plan``) pass straight through.  On cell failure the remaining records are still
    returned (graceful degradation) -- use :func:`run_sweep` when the
    caller needs the :class:`~repro.exec.report.FailureReport`.
    """
    return run_sweep(policy_names, traces, size_fractions=size_fractions,
                     options=options, workers=workers,
                     **sweep_kwargs).records


def index_by(records: Iterable[RunRecord]
             ) -> Dict[Tuple[str, str, float], RunRecord]:
    """Index records by (policy, trace, size_fraction) for joins."""
    return {(r.policy, r.trace, r.size_fraction): r for r in records}


def miss_ratio_table(
    records: Iterable[RunRecord],
) -> Dict[str, Dict[Tuple[str, float], float]]:
    """policy -> {(trace, size) -> miss ratio} nested mapping."""
    table: Dict[str, Dict[Tuple[str, float], float]] = {}
    for record in records:
        table.setdefault(record.policy, {})[
            (record.trace, record.size_fraction)] = record.miss_ratio
    return table


__all__ = [
    "SMALL_FRACTION",
    "LARGE_FRACTION",
    "SIZE_LABELS",
    "RunRecord",
    "SweepResult",
    "cell_key",
    "run_one",
    "run_sweep",
    "run_matrix",
    "index_by",
    "miss_ratio_table",
]
