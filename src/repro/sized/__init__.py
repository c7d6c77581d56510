"""Size-aware caching: the paper's §5 future-work direction, built.

* :mod:`repro.sized.base` -- object- and byte-level miss accounting.
  The sized FIFO, LRU and k-bit CLOCK are the unsized classes
  (:class:`~repro.policies.fifo.FIFO`, :class:`~repro.policies.lru.LRU`,
  :class:`~repro.core.clock.KBitClock`) given ``request(key, size)``.
* :mod:`repro.sized.policies` -- GDSF.
* :mod:`repro.sized.qd` -- size-aware Quick Demotion and
  Sized-QD-LP-FIFO.
* :mod:`repro.sized.workloads` -- deterministic heavy-tailed object
  sizes for any key trace.
* :mod:`repro.sized.simulator` -- (keys, sizes) replay.
"""

from repro.sized.base import SizedStats
from repro.sized.policies import GDSF
from repro.sized.qd import SizedGhost, SizedQDCache, SizedQDLPFIFO
from repro.sized.simulator import SizedSimResult, simulate_sized
from repro.sized.workloads import (
    attach_sizes,
    lognormal_size,
    pareto_size,
    total_bytes,
    unique_bytes,
)

__all__ = [
    "SizedStats",
    "GDSF",
    "SizedGhost",
    "SizedQDCache",
    "SizedQDLPFIFO",
    "SizedSimResult",
    "simulate_sized",
    "attach_sizes",
    "lognormal_size",
    "pareto_size",
    "total_bytes",
    "unique_bytes",
]
