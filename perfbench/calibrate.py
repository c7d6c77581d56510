"""How fast the machine runs Python right now, for normalising timings.

The benchmark runs on shared virtual machines whose vCPUs change speed
by up to 2x from one second to the next, and stay slow for minutes at
times, as neighbours come and go.  No minimum or median inside one run
removes a slow stretch that long.  So every timed unit -- kept short,
about 0.1 s -- is bracketed by :func:`kernel`: fixed pure-Python work
much like the program's own (a dict plus a linked list of small
objects: an LRU over a fixed key stream) that imports nothing from the
program.  The unit's time is scaled by ``REFERENCE_S / kernel time``.
Reported times are therefore seconds at the speed where the kernel
takes :data:`REFERENCE_S`: a change to the program moves them, the
machine's load mostly does not.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, List, Tuple

#: kernel seconds that define the reference speed
REFERENCE_S = 0.0035

_KEYS = [(i * 7919) % 3001 for i in range(12_000)]
_CAPACITY = 1_000


class _Node:
    __slots__ = ("key", "prev", "next")

    def __init__(self, key: int) -> None:
        self.key = key
        self.prev = self.next = self


def kernel() -> float:
    """Seconds one LRU replay over the fixed keys takes right now.

    The garbage collector is paused: a collection scans the caller's
    heap, which would make the kernel measure the caller, not the
    machine.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        head = _Node(-1)
        table = {}
        for key in _KEYS:
            node = table.get(key)
            if node is not None:
                node.prev.next = node.next
                node.next.prev = node.prev
            else:
                node = table[key] = _Node(key)
                if len(table) > _CAPACITY:
                    victim = head.prev
                    victim.prev.next = head
                    head.prev = victim.prev
                    del table[victim.key]
            node.next = head.next
            node.prev = head
            head.next.prev = node
            head.next = node
        return time.perf_counter() - started
    finally:
        gc.enable()


def scale(before: float, after: float) -> float:
    """Reference-speed factor for work bracketed by two kernel times."""
    return 2 * REFERENCE_S / (before + after)


def calibrated(units: List[Callable[[], Any]]
               ) -> List[Tuple[Any, float, float]]:
    """Run *units* in order, each between two :func:`kernel` runs.

    Returns ``(result, seconds, scale)`` per unit, where ``seconds *
    scale`` is the unit's time at the reference speed.
    """
    kernel()  # the first call in a process reads slow; discard one
    marks = [kernel()]
    out = []
    for unit in units:
        started = time.perf_counter()
        result = unit()
        took = time.perf_counter() - started
        marks.append(kernel())
        out.append((result, took, scale(marks[-2], marks[-1])))
    return out


def fastest(passes: List[List[Tuple[Any, float, float]]]
            ) -> List[Tuple[Any, float, float]]:
    """Per unit, its entry from the pass that was fastest at the
    reference speed (passes list the same units in the same order)."""
    return [min(column, key=lambda unit: unit[1] * unit[2])
            for column in zip(*passes)]
