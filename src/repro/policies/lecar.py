"""LeCaR: Learning Cache Replacement (Vietri et al., HotStorage 2018).

LeCaR manages the cache with exactly two experts -- LRU and LFU -- and
an online regret-minimisation scheme.  On each eviction it samples an
expert in proportion to its weight and evicts that expert's victim; the
victim is remembered in the expert's own history (ghost) list.  When a
miss hits one of the histories, the expert responsible for that earlier
eviction is penalised multiplicatively, with a discount that decays the
penalty for older mistakes.

One of the five state-of-the-art algorithms QD-enhanced in the paper's
Fig. 5 (QD-LeCaR reduces LeCaR's miss ratio by 4.5 % on average, the
largest of the five improvements).
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict

from repro.core.base import EvictionPolicy, Key
from repro.policies.lfu import LFU


class LeCaR(EvictionPolicy):
    """The LeCaR algorithm with its published hyper-parameters.

    ``learning_rate=0.45`` and ``discount = 0.005 ** (1/N)`` follow the
    original paper.  The expert-choice RNG is seeded for reproducible
    simulation runs.
    """

    name = "LeCaR"

    def __init__(
        self,
        capacity: int,
        learning_rate: float = 0.45,
        seed: int = 0,
    ) -> None:
        super().__init__(capacity)
        self.learning_rate = learning_rate
        self.discount = 0.005 ** (1.0 / capacity)
        self._rng = random.Random(seed)
        self._clock = 0

        self.w_lru = 0.5
        self.w_lfu = 0.5
        self._lru: "OrderedDict[Key, None]" = OrderedDict()
        self._lfu = LFU(capacity)
        #: histories map key -> (frequency at eviction, eviction time)
        self._hist_lru: "OrderedDict[Key, tuple]" = OrderedDict()
        self._hist_lfu: "OrderedDict[Key, tuple]" = OrderedDict()

    # ------------------------------------------------------------------
    def request(self, key: Key) -> bool:
        self._clock += 1
        if key in self._lru:
            self._lru.move_to_end(key)
            self._lfu.bump(key)
            # Both expert structures are updated: two promotions.
            self.stats.promotions += 2
            self.stats.hits += 1
            if self._listeners:
                if self._on_promote:
                    self._notify_promote(key, 2)
                if self._on_hit:
                    self._notify_hit(key)
            return True

        self.stats.misses += 1
        freq = 1
        if key in self._hist_lru:
            freq = self._penalise(self._hist_lru, key, which="lru")
        elif key in self._hist_lfu:
            freq = self._penalise(self._hist_lfu, key, which="lfu")

        if len(self._lru) >= self.capacity:
            self._evict_one()
        self._lru[key] = None
        self._lfu.insert(key, freq)
        if self._on_admit:
            self._notify_admit(key)
        return False

    # ------------------------------------------------------------------
    def _penalise(self, history: "OrderedDict[Key, tuple]", key: Key,
                  which: str) -> int:
        """Apply the regret update for a history hit; returns the
        frequency to restore for the re-admitted object."""
        freq, evicted_at = history.pop(key)
        regret = self.discount ** (self._clock - evicted_at)
        factor = math.e ** (self.learning_rate * regret)
        if which == "lru":
            # LRU evicted something useful: boost LFU.
            self.w_lfu *= factor
        else:
            self.w_lru *= factor
        total = self.w_lru + self.w_lfu
        self.w_lru /= total
        self.w_lfu /= total
        return freq + 1

    def _evict_one(self) -> None:
        use_lru = self._rng.random() < self.w_lru
        if use_lru:
            victim = next(iter(self._lru))
            history = self._hist_lru
        else:
            victim = self._lfu.victim()
            history = self._hist_lfu
        del self._lru[victim]
        freq = self._lfu.pop(victim)
        self._remember(history, victim, freq)
        if self._on_evict:
            self._notify_evict(victim)

    def _remember(self, history: "OrderedDict[Key, tuple]", key: Key,
                  freq: int) -> None:
        if len(history) >= self.capacity:
            history.popitem(last=False)
        history[key] = (freq, self._clock)

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._lru

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def weights(self) -> tuple:
        """Current (w_lru, w_lfu) expert weights."""
        return (self.w_lru, self.w_lfu)


__all__ = ["LeCaR"]
