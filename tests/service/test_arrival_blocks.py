"""Poisson arrival blocks: one cumsum gives the per-gap sums exactly.

``ArrivalSchedule._homogeneous`` draws exponential gaps in blocks and
accumulates each block with one ``np.cumsum`` started from the running
time.  :func:`per_gap` is the loop it replaced, adding one gap at a time
onto a running float.  The adds happen in the same order, so both must
give the same arrivals, as many of them, and leave the generator in the
same state -- for spans that need several blocks, starts above zero and
every schedule class built on the blocks.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.service.overload import (
    ArrivalSchedule,
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
    StepArrivals,
)


def per_gap(rng: np.random.Generator, rate: float, start: float,
            end: float) -> List[float]:
    """The reference: each arrival is the running time plus one gap."""
    if rate <= 0 or end <= start:
        return []
    out: List[float] = []
    t = start
    expected = max(16, int(rate * (end - start) * 1.2))
    while t < end:
        gaps = rng.exponential(1.0 / rate, size=expected)
        for gap in gaps:
            t += gap
            if t >= end:
                break
            out.append(t)
    return out


class CountingGenerator:
    """Counts the blocks ``_homogeneous`` draws from a generator."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.blocks = 0

    def exponential(self, scale, size):
        self.blocks += 1
        return self.rng.exponential(scale, size=size)


def both(seed: int, rate: float, start: float, end: float):
    reference = np.random.default_rng(seed)
    counted = CountingGenerator(np.random.default_rng(seed))
    expected = per_gap(reference, rate, start, end)
    got = ArrivalSchedule._homogeneous(counted, rate, start, end)
    assert got == expected
    assert len(got) == len(expected)
    assert (counted.rng.bit_generator.state
            == reference.bit_generator.state)
    return got, counted.blocks


@given(seed=st.integers(0, 2**32 - 1),
       rate=st.floats(0.5, 5000.0),
       start=st.floats(0.0, 1000.0),
       span=st.floats(1e-4, 20.0))
@settings(max_examples=150, deadline=None)
def test_blocks_match_the_per_gap_loop(seed, rate, start, span):
    both(seed, rate, start, start + span)


def test_spans_that_need_several_blocks():
    """14 arrivals due on average against a 16-gap block: many runs
    draw a second block, and the start is above zero."""
    blocks = []
    for seed in range(60):
        got, drawn = both(seed, 14.0, 3.5, 4.5)
        assert all(3.5 < t < 4.5 for t in got)
        blocks.append(drawn)
    assert blocks.count(2) >= 10
    assert 1 in blocks


@pytest.mark.parametrize("seed", range(30))
def test_every_schedule_class_keeps_its_arrivals(monkeypatch, seed):
    schedules = [
        PoissonArrivals(rate=300.0, duration=3.0, seed=seed),
        OnOffArrivals(rate=50.0, duration=7.0, burst=6.0, on_seconds=0.5,
                      off_seconds=1.5, seed=seed),
        DiurnalArrivals(rate=200.0, duration=4.0, amplitude=0.8,
                        period=2.0, seed=seed),
        StepArrivals(rate=100.0, duration=5.0, peak_rate=900.0,
                     seed=seed),
    ]
    got = [schedule.times() for schedule in schedules]
    monkeypatch.setattr(ArrivalSchedule, "_homogeneous",
                        staticmethod(per_gap))
    assert got == [schedule.times() for schedule in schedules]
    assert all(got)
