"""Consistent-hash ring with virtual nodes.

The router's placement function: each shard contributes ``vnodes``
points on a 64-bit hash circle, and a key belongs to the first shard
point clockwise of the key's own hash.  Virtual nodes smooth the
arc-length distribution (more points, smaller variance), and give the
ring its headline robustness property: **adding or removing one shard
only reassigns the keys in the arcs adjacent to that shard's points**
-- roughly ``1/(N+1)`` of the key space for an N-shard ring -- while
every other key keeps its owner.  A modulo placement (``hash(key) %
N``) would reshuffle nearly everything on every membership change,
invalidating all N caches at once.

Replicas are the next ``R`` *distinct* shards clockwise of the
primary, so a key's copies always live in different fault domains and
the replica set changes as little as the primary does.

Hashing is ``blake2b`` (stable across processes and Python versions;
``hash()`` is salted per process and useless here).  Keys are hashed
via ``repr`` so ints, strings and tuples place deterministically.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

Key = Hashable

#: Default virtual nodes per shard.  64 keeps per-shard load within a
#: few percent of fair for small clusters at negligible ring size.
DEFAULT_VNODES = 64


def stable_hash(text: str) -> int:
    """A process-stable 64-bit hash of *text*."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def key_point(key: Key) -> int:
    """Where *key* lands on the circle."""
    return stable_hash(f"key:{key!r}")


class HashRing:
    """Consistent hashing over named nodes with virtual nodes.

    Membership operations (:meth:`add`, :meth:`remove`) rebuild the
    sorted point list and, for every point, the distinct shards met
    walking clockwise from it -- O(points x shards) time and memory,
    ``vnodes * N * N`` entries for N shards (16 384 for 16 shards at
    the default 64 vnodes).  That is vastly cheaper than the key
    movement a membership change bounds, and it makes every lookup one
    hash, one bisect and one slice.
    """

    def __init__(self, nodes: Iterable[str] = (),
                 vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self._nodes: List[str] = []
        self._points: List[Tuple[int, str]] = []   # sorted (point, node)
        # (the points alone, successors): successors[i] lists every
        # member once, in clockwise order from point i, plus one row
        # for keys past the last point, which wrap to the first.
        self._lookup: Tuple[List[int], List[List[str]]] = ([], [[]])
        for node in nodes:
            self._join(node)
        self._rebuild()

    # -- membership ----------------------------------------------------
    @property
    def nodes(self) -> List[str]:
        """Member nodes in join order."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Join *node* (its vnode points enter the circle)."""
        self._join(node)
        self._rebuild()

    def _join(self, node: str) -> None:
        if not node:
            raise ValueError("node name must be non-empty")
        if node in self._nodes:
            raise ValueError(f"node {node!r} is already on the ring")
        self._nodes.append(node)

    def remove(self, node: str) -> None:
        """Leave *node* (its arcs fall to the next shards clockwise)."""
        if node not in self._nodes:
            raise ValueError(
                f"node {node!r} is not on the ring "
                f"(members: {', '.join(self._nodes) or 'none'})")
        self._nodes.remove(node)
        self._rebuild()

    def _rebuild(self) -> None:
        points = []
        for node in self._nodes:
            for index in range(self.vnodes):
                points.append((stable_hash(f"node:{node}:vn:{index}"),
                               node))
        points.sort()
        # Walk the circle backwards twice: on the second lap the shards
        # "ahead" of each point already cover the whole wrap-around.
        total = len(points)
        successors: List[List[str]] = []
        ahead: List[str] = []
        for index in range(2 * total - 1, -1, -1):
            node = points[index % total][1]
            ahead = [node] + [other for other in ahead if other != node]
            if index < total:
                successors.append(ahead)
        successors.reverse()
        successors.append(successors[0] if successors else [])
        self._points = points
        # One attribute, swapped whole: a lookup racing a membership
        # change reads either the old table or the new one, never a mix.
        self._lookup = ([point for point, _ in points], successors)

    # -- placement -----------------------------------------------------
    def primary(self, key: Key) -> str:
        """The shard owning *key*."""
        return self.owners(key, 1)[0]

    def owners(self, key: Key, count: int) -> List[str]:
        """The first *count* distinct shards clockwise of *key*.

        ``owners(key, 1 + replicas)`` is the key's primary followed by
        its replica shards.  With fewer than *count* members the whole
        membership is returned (primary first).
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        hashes, successors = self._lookup
        if not hashes:
            raise ValueError("ring has no nodes")
        return successors[bisect_right(hashes, key_point(key))][:count]

    # -- introspection -------------------------------------------------
    def assignments(self, keys: Sequence[Key]) -> Dict[Key, str]:
        """``key -> primary`` for every key (rebalance accounting)."""
        return {key: self.primary(key) for key in keys}

    def ownership(self) -> Dict[str, float]:
        """Fraction of the key space owned per node.

        Measured by arc length between consecutive vnode points, which
        is exact for the hash circle itself.
        """
        if not self._points:
            return {}
        span = 1 << 64
        fractions: Dict[str, float] = {node: 0.0 for node in self._nodes}
        for index, (point, _) in enumerate(self._points):
            owner = self._points[index][1]
            previous = self._points[index - 1][0]
            arc = (point - previous) % span
            if len(self._points) == 1:
                arc = span
            fractions[owner] += arc / span
        return fractions


def moved_keys(before: Dict[Key, str], after: Dict[Key, str]) -> List[Key]:
    """Keys whose primary changed between two assignment snapshots."""
    return [key for key, owner in before.items()
            if after.get(key) != owner]


__all__ = [
    "DEFAULT_VNODES",
    "HashRing",
    "key_point",
    "moved_keys",
    "stable_hash",
]
