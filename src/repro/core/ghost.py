"""Bounded metadata-only ghost queue (paper §4, Fig. 4).

A ghost queue remembers the identity -- not the data -- of recently
evicted objects.  The Quick Demotion wrapper uses a FIFO ghost sized to
as many entries as the main cache: an arriving miss whose key is found
in the ghost is judged "wrongly demoted once already" and admitted
straight into the main cache instead of the probationary queue.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator

Key = Hashable


class GhostQueue:
    """A FIFO set of keys with bounded size.

    Re-adding an existing key refreshes its position (moves it to the
    young end), matching the behaviour of ghost queues in ARC/2Q-style
    implementations.  ``max_entries == 0`` produces a permanently empty
    ghost, useful for ablations that disable history.
    :class:`~repro.core.qd.QDCache` tests and updates ``_entries`` in
    its own frame; a change to this class's rules must change it too.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Key, None]" = OrderedDict()

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Key]:
        """Iterate keys oldest -> youngest."""
        return iter(self._entries)

    def add(self, key: Key) -> None:
        """Record *key*, evicting the oldest entry when full."""
        if self.max_entries == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        while len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
        self._entries[key] = None

    def remove(self, key: Key) -> bool:
        """Forget *key*.  Returns whether it was present."""
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def clear(self) -> None:
        """Drop all entries."""
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GhostQueue {len(self)}/{self.max_entries}>"


__all__ = ["GhostQueue"]
