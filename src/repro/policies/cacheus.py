"""CACHEUS (Rodriguez et al., FAST 2021).

CACHEUS refines LeCaR along three axes: the two experts become
scan-resistant (**SR-LRU**) and churn-resistant (**CR-LFU**), the
learning rate adapts online instead of being fixed, and the history
footprint is halved.  It is one of the five state-of-the-art algorithms
the paper QD-enhances in Fig. 5.

Fidelity notes (documented per DESIGN.md):

* CR-LFU is LFU with MRU tie-breaking among minimum-frequency objects,
  as in the original.
* SR-LRU is implemented with its reuse (R) / scan (S) partition and an
  adaptively-sized scan region (history hits shrink the scan region;
  evictions of never-reused objects grow it).  This captures the
  published structure's behaviour without replicating every bookkeeping
  detail of the authors' code.
* The adaptive learning rate follows the paper's hill-climbing design:
  keep moving the learning rate in the direction that improved the
  window hit ratio, back off and reverse otherwise, and reset on
  prolonged stagnation.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from typing import Optional

from repro.core.base import EvictionPolicy, Key
from repro.policies.lfu import LFU


class _SRLRU:
    """Scan-resistant LRU ordering over an externally-owned key set.

    New keys enter the scan region **S**; a hit moves a key to the
    reuse region **R**.  Eviction victims come from S's LRU end when S
    is non-empty, else from R.  ``scan_target`` adapts: shrunk when a
    history hit proves we evicted reusable data too early, grown when a
    never-reused key is evicted (scan-like traffic).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.scan_target = max(1, capacity // 2)
        self._scan: "OrderedDict[Key, None]" = OrderedDict()
        self._reuse: "OrderedDict[Key, None]" = OrderedDict()

    def insert(self, key: Key) -> None:
        self._scan[key] = None

    def hit(self, key: Key) -> None:
        if key in self._scan:
            del self._scan[key]
            self._reuse[key] = None
            self._rebalance()
        else:
            self._reuse.move_to_end(key)

    def _rebalance(self) -> None:
        max_reuse = max(1, self.capacity - self.scan_target)
        while len(self._reuse) > max_reuse:
            demoted, _ = self._reuse.popitem(last=False)
            # Demoted keys re-enter the scan region at its MRU end so
            # they are not immediately evicted.
            self._scan[demoted] = None

    def victim(self) -> Key:
        if self._scan:
            return next(iter(self._scan))
        return next(iter(self._reuse))

    def remove(self, key: Key) -> bool:
        """Remove *key*; returns whether it sat in the scan region."""
        if key in self._scan:
            del self._scan[key]
            return True
        del self._reuse[key]
        return False

    def on_history_hit(self) -> None:
        """We evicted something reusable: give reuse more room."""
        self.scan_target = max(1, self.scan_target - 1)
        self._rebalance()

    def on_scan_eviction(self) -> None:
        """A never-reused key died in S: scans deserve more room."""
        self.scan_target = min(self.capacity - 1 if self.capacity > 1 else 1,
                               self.scan_target + 1)


class CACHEUS(EvictionPolicy):
    """The CACHEUS ensemble of SR-LRU and CR-LFU."""

    name = "CACHEUS"

    _LR_MIN = 1e-3
    _LR_MAX = 1.0

    def __init__(self, capacity: int, seed: int = 0) -> None:
        super().__init__(capacity)
        self._rng = random.Random(seed)
        self._clock = 0

        self.w_srlru = 0.5
        self.w_crlfu = 0.5
        self.learning_rate = 0.1
        self._lr_change = 0.01
        self._window = max(16, capacity)
        self._window_hits = 0
        self._window_requests = 0
        self._prev_hit_ratio: Optional[float] = None
        self._stagnant_windows = 0

        self._srlru = _SRLRU(capacity)
        self._crlfu = LFU(capacity, tie="mru")
        self._present: "OrderedDict[Key, None]" = OrderedDict()
        hist_cap = max(1, capacity // 2)
        self._hist_cap = hist_cap
        self._hist_srlru: "OrderedDict[Key, int]" = OrderedDict()
        self._hist_crlfu: "OrderedDict[Key, int]" = OrderedDict()

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        self._clock += 1
        self._window_requests += 1
        if key in self._present:
            self._srlru.hit(key)
            self._crlfu.bump(key)
            # Both expert structures are updated: two promotions.
            self.stats.promotions += 2
            self._window_hits += 1
            if self._window_requests >= self._window:
                self._end_of_window()
            self.stats.hits += 1
            if self._listeners:
                if self._on_promote:
                    self._notify_promote(key, 2)
                if self._on_hit:
                    self._notify_hit(key)
            return True

        self.stats.misses += 1
        freq = 1
        if key in self._hist_srlru:
            freq = self._hist_srlru.pop(key) + 1
            self._boost(crlfu=True)
            self._srlru.on_history_hit()
        elif key in self._hist_crlfu:
            freq = self._hist_crlfu.pop(key) + 1
            self._boost(crlfu=False)

        if len(self._present) >= self.capacity:
            self._evict_one()
        self._present[key] = None
        self._srlru.insert(key)
        self._crlfu.insert(key, freq)
        if self._window_requests >= self._window:
            self._end_of_window()
        if self._on_admit:
            self._notify_admit(key)
        return False

    # ------------------------------------------------------------------
    def _boost(self, crlfu: bool) -> None:
        """Multiplicative-weights update after an expert's mistake."""
        factor = math.e ** self.learning_rate
        if crlfu:
            self.w_crlfu *= factor
        else:
            self.w_srlru *= factor
        total = self.w_srlru + self.w_crlfu
        self.w_srlru /= total
        self.w_crlfu /= total

    def _evict_one(self) -> None:
        use_srlru = self._rng.random() < self.w_srlru
        if use_srlru:
            victim = self._srlru.victim()
            history = self._hist_srlru
        else:
            victim = self._crlfu.victim()
            history = self._hist_crlfu
        freq = self._crlfu.pop(victim)
        was_scan = self._srlru.remove(victim)
        if was_scan and freq <= 1:
            self._srlru.on_scan_eviction()
        del self._present[victim]
        if len(history) >= self._hist_cap:
            history.popitem(last=False)
        history[victim] = freq
        if self._on_evict:
            self._notify_evict(victim)

    def _end_of_window(self) -> None:
        """Hill-climb the learning rate on a closed window's hit ratio."""
        hit_ratio = self._window_hits / self._window_requests
        prev = self._prev_hit_ratio
        if prev is not None:
            if hit_ratio > prev:
                self._stagnant_windows = 0
                # Last adjustment helped: push further the same way.
                self.learning_rate = self._clamp_lr(
                    self.learning_rate + self._lr_change)
            elif hit_ratio < prev:
                self._stagnant_windows = 0
                # It hurt: back off and reverse direction.
                self._lr_change = -self._lr_change
                self.learning_rate = self._clamp_lr(
                    self.learning_rate + self._lr_change)
            else:
                self._stagnant_windows += 1
                if self._stagnant_windows >= 10:
                    # Prolonged stagnation: random restart (seeded).
                    self.learning_rate = self._rng.uniform(
                        self._LR_MIN, self._LR_MAX)
                    self._stagnant_windows = 0
        self._prev_hit_ratio = hit_ratio
        self._window_hits = 0
        self._window_requests = 0

    def _clamp_lr(self, value: float) -> float:
        return min(self._LR_MAX, max(self._LR_MIN, value))

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._present

    def __len__(self) -> int:
        return len(self._present)

    @property
    def weights(self) -> tuple:
        """Current (w_srlru, w_crlfu) expert weights."""
        return (self.w_srlru, self.w_crlfu)


__all__ = ["CACHEUS"]
