"""Fault-tolerant task executor: isolation, retries, checkpoints.

:func:`run_tasks` executes a list of keyed tasks and returns every
result it managed to produce plus a
:class:`~repro.exec.report.FailureReport` for the rest -- it does not
raise on task failure (graceful degradation).  Guarantees:

* **Crash isolation** (``workers > 1``): every attempt runs in its own
  worker process with a dedicated result pipe, so an OOM-killed or
  segfaulting worker takes down exactly one attempt of one task -- the
  coordinator observes the dead process, counts the attempt, and moves
  on.  This is unlike ``ProcessPoolExecutor``, where one abrupt worker
  death poisons the whole pool (``BrokenProcessPool``) and every
  in-flight future with it.
* **Retry with exponential backoff**: failed attempts are re-queued
  until :class:`~repro.exec.retry.RetryPolicy.max_attempts` is reached;
  other tasks keep executing while a retry waits out its backoff.
* **Per-task timeout**: an attempt over ``RetryPolicy.timeout`` has its
  worker process terminated and is counted as a failed attempt.
* **Checkpointing**: with a :class:`~repro.exec.journal.Journal`, every
  completed task is flushed to ``runs/<run-id>/journal.jsonl`` before
  the next one starts, so an interrupted run resumes losslessly.
* **Deterministic fault injection**: a
  :class:`~repro.exec.faults.FaultPlan` can fail/crash/delay specific
  (task, attempt) pairs, which is how the test-suite proves all of the
  above without real crashes or sleeps.

With ``workers <= 1`` tasks run in-process (no isolation, but identical
retry/journal/fault semantics and deterministic ordering); wall-clock
timeout preemption requires ``workers > 1``, while *virtual* delays
from a fault plan are enforced in both modes.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.clock import VirtualClock
from repro.exec.faults import (
    CRASH,
    ERROR,
    FaultPlan,
    InjectedFault,
    SweepInterrupted,
    TaskTimeout,
    WorkerCrash,
)
from repro.exec.journal import Journal
from repro.exec.report import FailureReport, TaskFailure
from repro.exec.retry import NO_RETRY, RetryPolicy
from repro.obs.metrics import DEFAULT_DURATION_BUCKETS, MetricsRegistry
from repro.obs.reqtrace import ActiveSpan


@dataclass(frozen=True)
class Task:
    """One unit of work: a JSON-serializable identity plus its input."""

    key: Tuple
    payload: Any


@dataclass
class ExecutionOutcome:
    """Everything :func:`run_tasks` produced."""

    results: Dict[Tuple, Any] = field(default_factory=dict)
    failures: FailureReport = field(default_factory=FailureReport)
    executed: int = 0   # tasks run (not restored) in this call
    resumed: int = 0    # tasks restored from a prior checkpoint


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _apply_faults(key: Tuple, attempt: int, plan: Optional[FaultPlan],
                  in_process: bool) -> float:
    """Honour the fault plan; returns the attempt's virtual duration."""
    if plan is None:
        return 0.0
    kind = plan.fault_for(key, attempt)
    if kind == CRASH:
        if in_process:
            raise WorkerCrash(
                f"injected worker crash for {key} (attempt {attempt})")
        os._exit(86)  # abrupt death: nothing flushed, no exception raised
    elif kind == ERROR:
        raise InjectedFault(
            f"injected fault for {key} (attempt {attempt})")
    return plan.delay_for(key, attempt)


def _attempt_main(fn: Callable[[Any], Any], payload: Any, key: Tuple,
                  attempt: int, plan: Optional[FaultPlan], conn) -> None:
    """Worker-process entry point: run one attempt, send one message."""
    try:
        virtual = _apply_faults(key, attempt, plan, in_process=False)
        result = fn(payload)
        conn.send(("ok", virtual, result))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc(limit=8)))
        except BaseException:
            os._exit(86)  # message unsendable: surface as a crash
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------

def _failure_kind(exc: BaseException) -> str:
    if isinstance(exc, WorkerCrash):
        return "crash"
    if isinstance(exc, TaskTimeout):
        return "timeout"
    return "error"


class _Run:
    """Shared bookkeeping for one :func:`run_tasks` invocation."""

    def __init__(self, retry: RetryPolicy, journal: Optional[Journal],
                 plan: Optional[FaultPlan],
                 encode: Callable[[Any], Any],
                 registry: Optional[MetricsRegistry] = None,
                 span: Optional[ActiveSpan] = None):
        self.retry = retry
        self.journal = journal
        self.plan = plan
        self.encode = encode
        self.registry = registry
        self.span = span
        self.results: Dict[Tuple, Any] = {}
        self.failed: Dict[Tuple, TaskFailure] = {}
        self.completions = 0
        #: task key -> its open cell span, from its first attempt on
        self._cells: Dict[Tuple, ActiveSpan] = {}
        if registry is not None:
            self._obs_attempts = registry.counter(
                "exec_attempts_total", "Task attempts started")
            self._obs_retries = registry.counter(
                "exec_retries_total", "Attempts beyond a task's first")
            self._obs_task_seconds = registry.histogram(
                "exec_task_seconds", "Wall time of successful attempts",
                DEFAULT_DURATION_BUCKETS)

    # -- span recording (all no-ops without a parent span) -------------
    def open_attempt(self, task: Task,
                     attempt: int) -> Optional[ActiveSpan]:
        """Open an attempt span under the task's cell span, opening the
        cell span at the task's first attempt."""
        if self.span is None:
            return None
        key = [k if isinstance(k, (str, int, float, bool)) else str(k)
               for k in task.key]
        cell = self._cells.get(task.key)
        if cell is None:
            cell = self._cells[task.key] = self.span.child(
                "cell", key=key, path="exec")
        return cell.child("attempt", key=key, attempt=attempt)

    @staticmethod
    def close_attempt(span: Optional[ActiveSpan],
                      error: Optional[str] = None) -> None:
        """End an attempt span; a failed attempt carries its *error*."""
        if span is not None:
            if error is not None:
                span.note(error=error)
            span.end()

    def _close_cell(self, task: Task, outcome: str) -> None:
        cell = self._cells.pop(task.key, None)
        if cell is not None:
            cell.end(outcome=outcome)

    def note_attempt(self, attempt: int) -> None:
        """Account one attempt being started."""
        if self.registry is not None:
            self._obs_attempts.inc()
            if attempt > 1:
                self._obs_retries.inc()

    def note_duration(self, seconds: float) -> None:
        """Account a successful attempt's wall time."""
        if self.registry is not None:
            self._obs_task_seconds.observe(seconds)

    def succeed(self, task: Task, result: Any) -> None:
        self._close_cell(task, "ok")
        self.results[task.key] = result
        if self.journal is not None:
            self.journal.record_result(task.key, self.encode(result))
        self.completions += 1
        if (self.plan is not None and self.plan.abort_after is not None
                and self.completions >= self.plan.abort_after):
            raise SweepInterrupted(
                f"injected interrupt after {self.completions} completions")

    def exhaust(self, task: Task, attempt: int, kind: str,
                error: str) -> None:
        self._close_cell(task, kind)
        failure = TaskFailure(key=task.key, attempts=attempt, kind=kind,
                              error=error.strip().splitlines()[-1]
                              if error.strip() else kind)
        self.failed[task.key] = failure
        if self.journal is not None:
            self.journal.record_failure(task.key, attempt, kind,
                                        failure.error)
        if self.registry is not None:
            self.registry.counter(
                "exec_failures_total", "Tasks whose retries were exhausted",
                kind=kind).inc()

    def over_virtual_budget(self, virtual: float) -> bool:
        return (self.retry.timeout is not None
                and virtual > self.retry.timeout)


def _run_serial(tasks: Sequence[Task], fn: Callable[[Any], Any],
                run: _Run, sleep: Callable[[float], None]) -> None:
    # Injected delays advance a shared virtual clock (the same utility
    # the service layer uses), so per-attempt budgets are enforced
    # deterministically without any real waiting.
    vclock = VirtualClock()
    for task in tasks:
        attempt = 1
        while True:
            span = run.open_attempt(task, attempt)
            try:
                run.note_attempt(attempt)
                started = vclock.now()
                wall_started = time.perf_counter()
                vclock.advance(_apply_faults(task.key, attempt, run.plan,
                                             in_process=True))
                result = fn(task.payload)
                wall_elapsed = time.perf_counter() - wall_started
                virtual = vclock.now() - started
                if run.over_virtual_budget(virtual):
                    raise TaskTimeout(
                        f"{task.key} took {virtual:.3f}s (virtual) with a "
                        f"{run.retry.timeout}s budget")
            except (KeyboardInterrupt, SystemExit, SweepInterrupted):
                raise
            except Exception as exc:
                run.close_attempt(span, error=type(exc).__name__)
                if attempt >= run.retry.max_attempts:
                    run.exhaust(task, attempt, _failure_kind(exc),
                                f"{type(exc).__name__}: {exc}")
                    break
                sleep(run.retry.backoff(attempt))
                attempt += 1
            else:
                run.close_attempt(span)
                run.note_duration(wall_elapsed)
                run.succeed(task, result)
                break


@dataclass
class _Inflight:
    task: Task
    attempt: int
    proc: multiprocessing.process.BaseProcess
    conn: Any
    deadline: Optional[float]
    started: float = 0.0   # monotonic launch time, for the obs histogram
    span: Optional[ActiveSpan] = None   # the attempt's span, if traced


@dataclass
class _Pending:
    task: Task
    attempt: int
    ready_at: float


def _stop_process(entry: _Inflight) -> None:
    if entry.proc.is_alive():
        entry.proc.terminate()
        entry.proc.join(timeout=2.0)
        if entry.proc.is_alive():
            entry.proc.kill()
            entry.proc.join(timeout=2.0)
    entry.conn.close()


def _run_parallel(tasks: Sequence[Task], fn: Callable[[Any], Any],
                  run: _Run, workers: int) -> None:
    ctx = multiprocessing.get_context()
    pending: List[_Pending] = [_Pending(t, 1, 0.0) for t in tasks]
    inflight: Dict[Tuple, _Inflight] = {}

    def launch(entry: _Pending) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_attempt_main,
            args=(fn, entry.task.payload, entry.task.key, entry.attempt,
                  run.plan, child_conn),
            daemon=True)
        proc.start()
        child_conn.close()
        deadline = (time.monotonic() + run.retry.timeout
                    if run.retry.timeout is not None else None)
        run.note_attempt(entry.attempt)
        inflight[entry.task.key] = _Inflight(
            entry.task, entry.attempt, proc, parent_conn, deadline,
            started=time.monotonic(),
            span=run.open_attempt(entry.task, entry.attempt))

    def attempt_failed(entry: _Inflight, exc: BaseException,
                       error: str) -> None:
        run.close_attempt(entry.span, error=type(exc).__name__)
        if entry.attempt >= run.retry.max_attempts:
            run.exhaust(entry.task, entry.attempt, _failure_kind(exc),
                        error)
        else:
            pending.append(_Pending(
                entry.task, entry.attempt + 1,
                time.monotonic() + run.retry.backoff(entry.attempt)))

    def settle(entry: _Inflight) -> None:
        """Entry's pipe has a message (or its process is dead): resolve."""
        message = None
        if entry.conn.poll():
            try:
                message = entry.conn.recv()
            except (EOFError, OSError):
                message = None
        entry.proc.join(timeout=5.0)
        entry.conn.close()
        del inflight[entry.task.key]
        if message is None:
            exc = WorkerCrash(
                f"worker for {entry.task.key} died without reporting "
                f"(exit code {entry.proc.exitcode})")
            attempt_failed(entry, exc, str(exc))
        elif message[0] == "ok":
            _, virtual, result = message
            if run.over_virtual_budget(virtual):
                exc = TaskTimeout(
                    f"{entry.task.key} took {virtual:.3f}s (virtual) with "
                    f"a {run.retry.timeout}s budget")
                attempt_failed(entry, exc, str(exc))
            else:
                run.close_attempt(entry.span)
                run.note_duration(time.monotonic() - entry.started)
                run.succeed(entry.task, result)
        else:
            attempt_failed(entry, InjectedFault("worker error"),
                           message[1])

    def expire(entry: _Inflight) -> None:
        _stop_process(entry)
        del inflight[entry.task.key]
        exc = TaskTimeout(
            f"{entry.task.key} exceeded the {run.retry.timeout}s "
            f"per-task timeout (attempt {entry.attempt})")
        attempt_failed(entry, exc, str(exc))

    try:
        while pending or inflight:
            now = time.monotonic()
            # Launch everything that is ready and fits in the worker cap.
            ready = [p for p in pending if p.ready_at <= now]
            for entry in ready:
                if len(inflight) >= workers:
                    break
                pending.remove(entry)
                launch(entry)

            if not inflight:
                # Every remaining task is waiting out a retry backoff.
                wake = min(p.ready_at for p in pending)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue

            # Sleep until a message, a worker death, a timeout deadline,
            # or the next backoff expiry -- whichever comes first.
            waitables = []
            for entry in inflight.values():
                waitables.append(entry.conn)
                waitables.append(entry.proc.sentinel)
            timeouts = [entry.deadline - now
                        for entry in inflight.values()
                        if entry.deadline is not None]
            if len(inflight) < workers:
                timeouts.extend(p.ready_at - now for p in pending)
            wait_for = max(0.0, min(timeouts)) if timeouts else None
            mp_connection.wait(waitables, timeout=wait_for)

            now = time.monotonic()
            for entry in list(inflight.values()):
                if entry.conn.poll() or not entry.proc.is_alive():
                    settle(entry)
                elif entry.deadline is not None and now > entry.deadline:
                    expire(entry)
    finally:
        for entry in list(inflight.values()):
            _stop_process(entry)
        inflight.clear()


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def run_tasks(
    tasks: Sequence[Task],
    fn: Callable[[Any], Any],
    *,
    workers: int = 1,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[Journal] = None,
    completed: Optional[Dict[Tuple, Any]] = None,
    fault_plan: Optional[FaultPlan] = None,
    encode: Callable[[Any], Any] = lambda result: result,
    sleep: Callable[[float], None] = time.sleep,
    registry: Optional[MetricsRegistry] = None,
    span: Optional[ActiveSpan] = None,
) -> ExecutionOutcome:
    """Execute *tasks* with fault isolation, retries and checkpointing.

    ``fn(payload)`` must be a module-level callable (it is shipped to
    worker processes when ``workers > 1``).  ``completed`` maps task
    keys to already-known results (from a resumed journal); those tasks
    are skipped.  ``encode`` converts a result to the JSON-serializable
    payload the journal stores.  ``sleep`` is injectable so tests can
    observe backoff without waiting (serial mode only).  ``registry``
    opts into observability: attempt/retry counters, per-kind failure
    counters, and a wall-time histogram of successful attempts.
    ``span`` opts into span tracing: each task gets a ``cell`` child of
    that span covering first launch to resolution, with one child
    ``attempt`` span per attempt (failed attempts carry an ``error``
    arg) -- in parallel mode the coordinator opens and ends spans at
    launch and settle, so worker processes need no tracer plumbing.

    Task failures never raise; they are collected into the outcome's
    :class:`FailureReport`.  ``KeyboardInterrupt`` and
    :class:`SweepInterrupted` do propagate -- with every completion up
    to that point already flushed to the journal.
    """
    keys = [task.key for task in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("task keys must be unique")
    retry = retry or NO_RETRY
    completed = completed or {}

    run = _Run(retry, journal, fault_plan, encode, registry, span)
    resumed = 0
    for task in tasks:
        if task.key in completed:
            run.results[task.key] = completed[task.key]
            resumed += 1
    todo = [task for task in tasks if task.key not in completed]

    if workers <= 1 or len(todo) <= 1:
        _run_serial(todo, fn, run, sleep)
    else:
        _run_parallel(todo, fn, run, workers)

    ordered = [run.failed[key] for key in keys if key in run.failed]
    return ExecutionOutcome(
        results=run.results,
        failures=FailureReport(ordered),
        executed=run.completions + len(run.failed),
        resumed=resumed,
    )


__all__ = ["Task", "ExecutionOutcome", "run_tasks"]
