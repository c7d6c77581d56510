"""Adaptive probationary sizing for QD-LP-FIFO (paper §5).

The paper is explicitly skeptical of adaptivity: ARC-style adaptive
queue sizing "is not optimal" and "manually limiting the queue size
... often reduce[s] miss ratios"; QD deliberately uses a *tiny fixed*
10 % probationary queue.  This class implements the obvious adaptive
alternative -- hill-climbing the probationary share on windowed miss
ratio -- precisely so the claim can be tested: experiment A8 compares
it against the fixed 10 % design (and, reproducing the paper's
judgement, rarely finds the adaptation worth its complexity).

Mechanics: every ``window`` requests the controller compares the
window's miss ratio with the previous window's; an improvement keeps
the last direction of change, a regression reverses it, and the
probationary share moves one multiplicative step within
``[min_fraction, max_fraction]``.  Budget freed from (or taken by) the
probationary queue is transferred to the 2-bit-CLOCK main cache via
its ``resize``.
"""

from __future__ import annotations

from repro.core.base import Key
from repro.core.clock import KBitClock
from repro.core.qd import QDCache


class AdaptiveQDLPFIFO(QDCache):
    """QD-LP-FIFO with a hill-climbing probationary share."""

    def __init__(
        self,
        capacity: int,
        initial_fraction: float = 0.1,
        min_fraction: float = 0.02,
        max_fraction: float = 0.5,
        step: float = 1.3,
        window: int = 0,
        clock_bits: int = 2,
    ) -> None:
        super().__init__(
            capacity,
            main_factory=lambda c: KBitClock(c, bits=clock_bits),
            probation_fraction=initial_fraction,
        )
        if not 0.0 < min_fraction <= initial_fraction <= max_fraction < 1.0:
            raise ValueError(
                "need 0 < min_fraction <= initial_fraction <= "
                "max_fraction < 1")
        if step <= 1.0:
            raise ValueError(f"step must be > 1, got {step}")
        self.name = "Adaptive-QD-LP-FIFO"
        self.fraction = initial_fraction
        self.min_fraction = min_fraction
        self.max_fraction = max_fraction
        self.step = step
        self.window = window if window > 0 else max(256, capacity)
        self._direction = 1.0  # start by trying a larger probation
        self._window_requests = 0
        self._window_misses = 0
        self._previous_ratio: float = -1.0

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        hit = super().request(key)
        self._window_requests += 1
        if not hit:
            self._window_misses += 1
        if self._window_requests >= self.window:
            self._adapt()
        return hit

    def _adapt(self) -> None:
        ratio = self._window_misses / self._window_requests
        if self._previous_ratio >= 0.0:
            if ratio > self._previous_ratio:
                self._direction = -self._direction  # it got worse: back off
            factor = self.step if self._direction > 0 else 1.0 / self.step
            self.fraction = min(self.max_fraction,
                                max(self.min_fraction,
                                    self.fraction * factor))
            self._apply_fraction()
        self._previous_ratio = ratio
        self._window_requests = 0
        self._window_misses = 0

    def _apply_fraction(self) -> None:
        """Rebalance the slot budget between probation and main."""
        new_probation = max(1, round(self.capacity * self.fraction))
        if new_probation >= self.capacity:
            new_probation = self.capacity - 1
        if new_probation == self.probation_capacity:
            return
        self.probation_capacity = new_probation
        self.main_capacity = self.capacity - new_probation
        # Resize main first: when probation grows, main evicts down to
        # its smaller budget; when probation shrinks, main has already
        # grown by the slots the graduating keys need.
        self.main.resize(self.main_capacity)
        # Shrinking probation demotes its tail via the normal path so
        # accessed objects still graduate rather than vanish.
        while len(self._probation) > self.probation_capacity:
            self._demote_one()
        self.ghost.max_entries = self.main_capacity

    @property
    def probation_fraction(self) -> float:
        """The current (adapted) probationary share."""
        return self.fraction


__all__ = ["AdaptiveQDLPFIFO"]
