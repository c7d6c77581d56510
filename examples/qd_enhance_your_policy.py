#!/usr/bin/env python3
"""LEGO caching: add Quick Demotion to *your own* eviction policy.

The paper envisions eviction algorithms assembled like LEGO bricks:
take any base policy, bolt on a probationary FIFO + ghost (Quick
Demotion), and optionally use lazy promotion inside.  Because
``QDCache`` wraps anything implementing ``EvictionPolicy``, that
composition is one line.

This example defines a deliberately naive custom policy (most-recently
-used eviction -- usually terrible), wraps it with QD, and sweeps the
probationary size to show the 10 % sweet spot.

Run:  python examples/qd_enhance_your_policy.py
"""

from collections import OrderedDict

import numpy as np

from repro import EvictionPolicy, QDCache, simulate, wrap_with_qd
from repro.analysis.tables import render_table
from repro.policies.lru import LRU
from repro.traces.synthetic import blend, one_hit_wonder_trace, scan_trace


class MRU(EvictionPolicy):
    """Evict the most recently used object (a scan-friendly policy).

    Bookkeeping follows the one ``EvictionPolicy`` rule: count straight
    into ``self.stats``, and call listeners only behind
    ``if self._listeners:``.
    """

    name = "MRU"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._queue: "OrderedDict[object, None]" = OrderedDict()

    def request(self, key) -> bool:
        if key in self._queue:
            self._queue.move_to_end(key)
            self.stats.promotions += 1
            self.stats.hits += 1
            if self._listeners:
                self._notify_promote(key)
                self._notify_hit(key)
            return True
        self.stats.misses += 1
        if len(self._queue) >= self.capacity:
            victim, _ = self._queue.popitem(last=True)  # MRU end!
            if self._listeners:
                self._notify_evict(victim)
        self._queue[key] = None
        if self._listeners:
            self._notify_admit(key)
        return False

    def __contains__(self, key) -> bool:
        return key in self._queue

    def __len__(self) -> int:
        return len(self._queue)


def main() -> None:
    rng = np.random.default_rng(7)
    core = one_hit_wonder_trace(4000, 60000, 1.0, 0.25, rng)
    scan = scan_trace(20000, base=10_000_000)
    keys = blend([core, scan], [0.75, 0.25], rng)
    capacity = 800

    rows = []
    for factory in (MRU, LRU, wrap_with_qd(MRU), wrap_with_qd(LRU)):
        policy = factory(capacity)
        rows.append([policy.name, simulate(policy, keys).miss_ratio])
    print(render_table(["policy", "miss ratio"], rows,
                       title="QD rescues even a bad base policy"))

    print()
    rows = []
    for fraction in (0.025, 0.05, 0.1, 0.2, 0.5):
        policy = QDCache(capacity, LRU, probation_fraction=fraction)
        rows.append([f"{fraction:.1%}",
                     simulate(policy, keys).miss_ratio])
    print(render_table(
        ["probationary share", "miss ratio"], rows,
        title="Probationary-queue size sweep (QD-LRU)"))
    print()
    print("The paper's tiny fixed 10% probationary queue is near the")
    print("sweet spot; 2Q-style 25-50% admission queues demote slower.")


if __name__ == "__main__":
    main()
