"""Clock abstraction shared by the executor and the service layer.

Deterministic failure-path tests must never sleep: a suite that waits
out real backoffs, TTLs or outage windows is slow at best and flaky at
worst.  Both fault-tolerant layers in this repo -- the sweep executor
(:mod:`repro.exec.executor`) and the cache service
(:mod:`repro.service`) -- therefore run against a :class:`Clock`
interface instead of the ``time`` module:

* :class:`SystemClock` is the production implementation
  (``time.monotonic`` / ``time.sleep``).
* :class:`VirtualClock` is a manually-advanced clock: ``sleep`` simply
  moves time forward, so retries back off, TTLs expire, circuit
  breakers reset and outage windows open and close instantly and
  deterministically.

:class:`VirtualClock` is thread-safe so multi-threaded service tests
can share one timeline.  In manual mode concurrent sleepers form an
ordered waiter queue: an external ``advance`` releases them one at a
time in ``(deadline, registration)`` order, so a multi-shard outage
window -- several shards sleeping until their own fault boundaries --
unfolds in the same order on every run.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod


class Clock(ABC):
    """Monotonic time source with an injectable notion of sleeping."""

    @abstractmethod
    def now(self) -> float:
        """Current monotonic time in seconds."""

    @abstractmethod
    def sleep(self, seconds: float) -> None:
        """Block (or pretend to block) for *seconds*."""

    def sleep_until(self, deadline: float) -> None:
        """Block until the clock reads at least *deadline*.

        The drift-free way to pace periodic work: computing the next
        absolute deadline and sleeping *until* it (rather than sleeping
        a relative tick) keeps a long run's schedule exact even when
        each iteration takes its own time.  A deadline in the past
        returns immediately.
        """
        remaining = deadline - self.now()
        if remaining > 0:
            self.sleep(remaining)


class SystemClock(Clock):
    """The real wall clock: ``time.monotonic`` and ``time.sleep``."""

    #: ``time.monotonic`` itself: a read costs no Python frame.
    now = staticmethod(time.monotonic)

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        if seconds:
            time.sleep(seconds)


class VirtualClock(Clock):
    """A deterministic clock that only moves when told to.

    ``sleep(s)`` advances time by *s* instead of blocking, so code
    written against :class:`Clock` runs its timeout/backoff/TTL logic
    unchanged while tests complete in microseconds.  ``advance`` is the
    test-side control for modelling elapsed time between requests.

    In the default (auto) mode a sleep moves time to its deadline and
    returns.  **In manual mode waiters wake deterministically**: each
    sleeper registers a ``(deadline, seq)`` waiter (``seq`` is the
    registration order) and parks until time reaches its deadline, and
    due waiters return strictly one at a time in ``(deadline, seq)``
    order.  An :meth:`advance` that jumps past several deadlines
    therefore releases those sleepers earliest-deadline first, ties
    broken by registration order, on every run.
    """

    #: real-time poll interval while parked; a safety valve only --
    #: every wake-relevant event also notifies the condition.
    _WAIT_SLICE = 0.05

    def __init__(self, start: float = 0.0, manual: bool = False) -> None:
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self._now = float(start)
        self._manual = bool(manual)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._waiters: set = set()   # pending (deadline, seq) pairs
        self._seq = 0

    @property
    def manual(self) -> bool:
        """Whether sleepers park until an external :meth:`advance`."""
        return self._manual

    def now(self) -> float:
        # Lock-free: one attribute, written only under the lock.
        return self._now

    def pending_waiters(self) -> int:
        """How many threads are currently parked in a virtual sleep."""
        with self._lock:
            return len(self._waiters)

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        if not self._manual:
            # An auto-mode sleeper only moves time: the plain lock does.
            with self._lock:
                self._now += seconds
            return
        with self._cond:
            self._sleep_until_locked(self._now + seconds)

    def sleep_until(self, deadline: float) -> None:
        """Advance-or-wait until the clock reads at least *deadline*."""
        # Lock-free: time never moves back, so a past deadline stays past.
        if deadline <= self._now:
            return
        if not self._manual:
            with self._lock:
                if deadline > self._now:
                    self._now = float(deadline)
            return
        with self._cond:
            self._sleep_until_locked(float(deadline))

    def advance(self, seconds: float) -> float:
        """Move time forward by *seconds*; returns the new time.

        Before returning, every parked sleeper whose deadline was
        passed is released -- serially, in ``(deadline, registration)``
        order -- so an ``advance`` over a multi-shard outage boundary
        is a synchronisation point: when it returns, all the shards
        that were due have taken their turn.
        """
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        with self._cond:
            self._now += seconds
            target = self._now
            self._cond.notify_all()
            # Drain satisfied waiters before handing time back.
            while any(deadline <= target
                      for deadline, _ in self._waiters):
                self._cond.wait(self._WAIT_SLICE)
            return target

    # ------------------------------------------------------------------
    def _sleep_until_locked(self, deadline: float) -> None:
        """The manual-mode waiter protocol; caller holds ``self._cond``.

        A waiter may exit only when (a) time has reached its deadline
        and (b) it is the minimal pending waiter -- which serialises
        wake-ups into (deadline, registration) order, as a coordinated
        multi-shard timeline needs.  (An auto-mode sleeper moves time
        to its deadline under the plain lock and never waits.)
        """
        if deadline <= self._now:
            return
        me = (deadline, self._seq)
        self._seq += 1
        self._waiters.add(me)
        try:
            while True:
                if self._now >= deadline and me == min(self._waiters):
                    return
                self._cond.wait(self._WAIT_SLICE)
        finally:
            self._waiters.discard(me)
            self._cond.notify_all()


__all__ = ["Clock", "SystemClock", "VirtualClock"]
