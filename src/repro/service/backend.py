"""Backend (origin) abstraction for the cache service.

A :class:`Backend` is whatever sits behind the cache: a database, a
storage cluster, an upstream HTTP service.  The service only needs one
operation -- ``fetch(key) -> value`` -- which either returns the
authoritative value or raises.

:class:`InMemoryBackend` is the deterministic origin used by tests,
examples and the load generator; :class:`FaultInjectedBackend` wraps
any backend with a :class:`~repro.service.faults.BackendFaultPlan` so
every failure mode is reproducible on a virtual clock.  Both count
their calls per key.  A cluster shard's default backend
(:func:`~repro.cluster.cluster.build_cluster`) wraps the same values,
:func:`origin_value`, in a :class:`CallableBackend` that counts
nothing, so its one count is the wrapper's ``calls(key)``.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Hashable, Optional

from repro.exec.clock import Clock, SystemClock
from repro.service.faults import (
    ERROR,
    TIMEOUT,
    BackendFaultPlan,
    BackendOutage,
    BackendTimeout,
    InjectedBackendError,
)

Key = Hashable


class Backend(ABC):
    """The origin the cache reads through to."""

    @abstractmethod
    def fetch(self, key: Key) -> Any:
        """Return the authoritative value for *key*, or raise."""


def origin_value(key: Key) -> str:
    """The default origin's value for *key*: ``"value:<key>"``."""
    return f"value:{key}"


class InMemoryBackend(Backend):
    """Deterministic in-memory origin with per-key fetch accounting.

    Values come from *value_fn* (default :func:`origin_value`), so any
    key is fetchable without pre-seeding.  ``fetch_count(key)`` is
    thread-safe, which is what the coalescing tests assert against: a
    miss storm on one key must reach the origin exactly once.
    """

    def __init__(self, value_fn: Optional[Callable[[Key], Any]] = None
                 ) -> None:
        self._value_fn = value_fn or origin_value
        self._counts: Dict[Key, int] = {}
        self._lock = threading.Lock()

    def fetch(self, key: Key) -> Any:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1
        return self._value_fn(key)

    def fetch_count(self, key: Key) -> int:
        """How many times *key* has been fetched."""
        with self._lock:
            return self._counts.get(key, 0)


class CallableBackend(Backend):
    """Adapt a plain callable (or a blocking test stub) to a Backend."""

    def __init__(self, fn: Callable[[Key], Any]) -> None:
        self._fn = fn

    def fetch(self, key: Key) -> Any:
        return self._fn(key)


class FaultInjectedBackend(Backend):
    """Wrap a backend with a deterministic fault schedule.

    On every fetch the wrapper (in order):

    1. looks up the 1-based call index for *key* (thread-safe);
    2. sleeps the scheduled latency on the injected clock -- a virtual
       advance under :class:`~repro.exec.clock.VirtualClock`;
    3. raises :class:`BackendOutage` if the fetch *started* inside an
       outage window;
    4. raises the scheduled per-key fault, if any
       (:class:`InjectedBackendError` or :class:`BackendTimeout`);
    5. otherwise delegates to the wrapped backend.

    While the plan schedules nothing, steps 2-4 are skipped and the
    clock is not read.  The plan is read afresh on every fetch, so a
    fault added mid-run lands on the call index it names.
    """

    def __init__(self, inner: Backend, plan: BackendFaultPlan,
                 clock: Optional[Clock] = None) -> None:
        self.inner = inner
        self.plan = plan
        self.clock = clock or SystemClock()
        self._calls: Dict[Key, int] = {}
        self._lock = threading.Lock()

    def fetch(self, key: Key) -> Any:
        # A cluster shard's every miss takes this lock, so its acquire
        # and release are spelled out, which costs less per call than
        # `with`: see "A request pays for its locks" in
        # docs/performance.md.
        lock = self._lock
        lock.acquire()
        try:
            call = self._calls.get(key, 0) + 1
            self._calls[key] = call
        finally:
            lock.release()
        plan = self.plan
        if not (plan.failures or plan.latencies or plan.outages
                or plan.default_latency):
            return self.inner.fetch(key)
        started = self.clock.now()
        latency = plan.latency_for(key, call)
        if latency:
            self.clock.sleep(latency)
        if plan.in_outage(started):
            raise BackendOutage(
                f"backend outage at t={started:.3f} (fetch of {key!r})")
        kind = plan.fault_for(key, call)
        if kind == ERROR:
            raise InjectedBackendError(
                f"injected backend error for {key!r} (call {call})")
        if kind == TIMEOUT:
            raise BackendTimeout(
                f"injected backend timeout for {key!r} (call {call})")
        return self.inner.fetch(key)

    def calls(self, key: Key) -> int:
        """How many fetches of *key* have been attempted."""
        with self._lock:
            return self._calls.get(key, 0)


__all__ = [
    "Backend",
    "CallableBackend",
    "FaultInjectedBackend",
    "InMemoryBackend",
    "origin_value",
]
