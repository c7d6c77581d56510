"""Per-backend circuit breaker with half-open probing.

When a backend is down, hammering it with every cache miss makes the
outage worse and ties up service threads in doomed fetches.  The
breaker is the standard three-state machine:

* **closed** -- requests flow; consecutive failures are counted.
* **open** -- after ``failure_threshold`` consecutive failures the
  breaker rejects fetches instantly (the service then degrades:
  serve-stale or fast error) for ``reset_timeout`` seconds.
* **half-open** -- after the cooldown, up to ``half_open_probes``
  trial fetches are let through; one success closes the breaker, one
  failure re-opens it (and restarts the cooldown).

All timing runs on the shared :class:`~repro.exec.clock.Clock`, so the
full open -> half-open -> closed cycle is testable on a virtual clock.
State transitions are recorded with timestamps for the metrics report.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.exec.clock import Clock, SystemClock

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Numeric encoding of breaker states for the ``service_breaker_state``
#: gauge (0 = closed, 1 = half-open, 2 = open).
STATE_VALUES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker tuning knobs (validated eagerly).

    * ``failure_threshold`` -- consecutive failures that trip the
      breaker.
    * ``reset_timeout`` -- seconds the breaker stays open before
      probing.
    * ``half_open_probes`` -- concurrent trial fetches allowed while
      half-open.
    """

    failure_threshold: int = 5
    reset_timeout: float = 30.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, "
                f"got {self.failure_threshold}")
        if self.reset_timeout <= 0:
            raise ValueError(
                f"reset_timeout must be > 0, got {self.reset_timeout}")
        if self.half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, "
                f"got {self.half_open_probes}")


class CircuitBreaker:
    """Thread-safe three-state circuit breaker on an injectable clock."""

    def __init__(self, config: Optional[BreakerConfig] = None,
                 clock: Optional[Clock] = None) -> None:
        self.config = config or BreakerConfig()
        self.clock = clock or SystemClock()
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0        # consecutive failures while closed
        self._opened_at = 0.0
        self._probes = 0          # in-flight probes while half-open
        #: (timestamp, from-state, to-state), oldest first
        self.transitions: List[Tuple[float, str, str]] = []
        #: Called as ``on_transition(from_state, to_state, now)`` after
        #: every state change, while the breaker lock is held -- keep it
        #: cheap and re-entrancy-free (a gauge update, not a fetch).
        self.on_transition: Optional[Callable[[str, str, float], None]] = None

    # ------------------------------------------------------------------
    def _move(self, to_state: str, now: float) -> None:
        self.transitions.append((now, self._state, to_state))
        from_state, self._state = self._state, to_state
        if self.on_transition is not None:
            self.on_transition(from_state, to_state, now)

    def _refresh(self, now: float) -> None:
        """Open -> half-open once the cooldown has elapsed."""
        if (self._state == OPEN
                and now - self._opened_at >= self.config.reset_timeout):
            self._move(HALF_OPEN, now)
            self._probes = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, applying any due open -> half-open move."""
        with self._lock:
            self._refresh(self.clock.now())
            return self._state

    def is_open(self) -> bool:
        """Whether the breaker rejects fetches right now (state ``open``).

        Lock-free while closed: ``_state`` is one attribute, written
        only under the lock, so under the GIL a reader sees either the
        old state or the new one.  A reader that races a trip and still
        sees ``closed`` acts as if it ran just before the trip.  Every
        other state takes the lock and applies a due open -> half-open
        move first, exactly like :attr:`state`.
        """
        if self._state == CLOSED:
            return False
        return self.state == OPEN

    def allow(self) -> bool:
        """Whether a fetch may proceed right now.

        In the half-open state each ``allow()`` grants one of the
        configured probe slots; callers MUST report the probe's fate
        via :meth:`record_success` / :meth:`record_failure`.  A closed
        breaker answers without its lock, as in :meth:`is_open`.
        """
        if self._state == CLOSED:
            return True
        with self._lock:
            now = self.clock.now()
            self._refresh(now)
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                if self._probes < self.config.half_open_probes:
                    self._probes += 1
                    return True
                return False
            return False

    def record_success(self) -> None:
        """A fetch succeeded: reset failures; close from half-open.

        Lock-free on a clean success -- closed with no failure counted
        leaves nothing to reset.  A failure racing it then acts as if it
        came after the success, which the locked order also allows.
        """
        if self._state == CLOSED and self._failures == 0:
            return
        with self._lock:
            now = self.clock.now()
            self._refresh(now)
            self._failures = 0
            if self._state == HALF_OPEN:
                self._move(CLOSED, now)
                self._probes = 0

    def record_failure(self) -> None:
        """A fetch failed: count it; trip or re-open as configured."""
        with self._lock:
            now = self.clock.now()
            self._refresh(now)
            if self._state == HALF_OPEN:
                # The probe failed: straight back to open, new cooldown.
                self._move(OPEN, now)
                self._opened_at = now
                self._probes = 0
                self._failures = 0
                return
            if self._state == CLOSED:
                self._failures += 1
                if self._failures >= self.config.failure_threshold:
                    self._move(OPEN, now)
                    self._opened_at = now
                    self._failures = 0


__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "STATE_VALUES",
    "BreakerConfig",
    "CircuitBreaker",
]
