"""Property tests for the consistent-hash ring.

The two invariants the cluster's correctness rests on:

1. every key maps to exactly one primary plus R *distinct* replicas,
   all of them ring members;
2. a single join or leave only reassigns keys in the affected arcs --
   far fewer than a full reshuffle, and never between two surviving
   shards on a leave (keys either move to/from the changed node).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.ring import (
    DEFAULT_VNODES,
    HashRing,
    key_point,
    moved_keys,
    stable_hash,
)

NODE_NAMES = [f"n{i}" for i in range(12)]

nodes_strategy = st.lists(st.sampled_from(NODE_NAMES), min_size=2,
                          max_size=8, unique=True)
keys_strategy = st.lists(
    st.one_of(st.integers(), st.text(max_size=20),
              st.tuples(st.integers(), st.integers())),
    min_size=1, max_size=200, unique=True)


class TestStableHash:
    def test_deterministic_across_instances(self):
        assert stable_hash("abc") == stable_hash("abc")

    def test_64_bit_range(self):
        for text in ("", "a", "key:123", "node:n0:vn:63"):
            assert 0 <= stable_hash(text) < (1 << 64)

    def test_key_point_distinguishes_types(self):
        # "1" (str) and 1 (int) must not collide via repr.
        assert key_point("1") != key_point(1)


class TestRingBasics:
    def test_empty_ring_rejects_lookup(self):
        with pytest.raises(ValueError, match="no nodes"):
            HashRing().primary("k")

    def test_rejects_bad_vnodes(self):
        with pytest.raises(ValueError, match="vnodes"):
            HashRing(vnodes=0)

    def test_rejects_duplicate_node(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError, match="already"):
            ring.add("a")

    def test_rejects_unknown_removal(self):
        with pytest.raises(ValueError, match="not on the ring"):
            HashRing(["a"]).remove("b")

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            HashRing().add("")

    def test_membership_and_len(self):
        ring = HashRing(["a", "b"])
        assert len(ring) == 2
        assert "a" in ring and "c" not in ring
        assert ring.nodes == ["a", "b"]

    def test_single_node_owns_everything(self):
        ring = HashRing(["solo"])
        for key in range(50):
            assert ring.primary(key) == "solo"
        assert ring.ownership() == {"solo": pytest.approx(1.0)}

    def test_owners_count_validation(self):
        with pytest.raises(ValueError, match="count"):
            HashRing(["a"]).owners("k", 0)

    def test_ownership_fractions_sum_to_one(self):
        ring = HashRing(["a", "b", "c"])
        assert sum(ring.ownership().values()) == pytest.approx(1.0)

    def test_vnodes_smooth_the_distribution(self):
        coarse = HashRing(["a", "b", "c", "d"], vnodes=1)
        fine = HashRing(["a", "b", "c", "d"], vnodes=DEFAULT_VNODES)

        def spread(ring):
            fractions = ring.ownership().values()
            return max(fractions) - min(fractions)

        assert spread(fine) < spread(coarse)


class TestPlacementProperties:
    @given(nodes=nodes_strategy, keys=keys_strategy,
           replicas=st.integers(min_value=0, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_one_primary_plus_distinct_replicas(self, nodes, keys,
                                                replicas):
        """Every key: exactly one primary + R distinct member replicas."""
        ring = HashRing(nodes)
        want = min(1 + replicas, len(nodes))
        for key in keys:
            owners = ring.owners(key, 1 + replicas)
            assert len(owners) == want
            assert len(set(owners)) == len(owners)       # all distinct
            assert all(owner in ring for owner in owners)
            assert owners[0] == ring.primary(key)        # stable primary

    @given(nodes=nodes_strategy, keys=keys_strategy)
    @settings(max_examples=50, deadline=None)
    def test_placement_is_deterministic(self, nodes, keys):
        """Two independently built rings agree on every placement."""
        one, two = HashRing(nodes), HashRing(list(reversed(nodes)))
        for key in keys:
            assert one.primary(key) == two.primary(key)


def reference_owners(members, vnodes, key, count):
    """Walk the circle clockwise from *key*, collecting distinct nodes."""
    points = sorted((stable_hash(f"node:{node}:vn:{index}"), node)
                    for node in members for index in range(vnodes))
    target = key_point(key)
    start = next((i for i, (point, _) in enumerate(points)
                  if point > target), len(points))
    found = []
    for step in range(len(points)):
        node = points[(start + step) % len(points)][1]
        if node not in found:
            found.append(node)
    return found[:count]


class TestOwnersTable:
    @given(nodes=nodes_strategy, keys=keys_strategy,
           moves=st.lists(st.tuples(st.booleans(),
                                    st.sampled_from(NODE_NAMES)),
                          max_size=6),
           vnodes=st.sampled_from([1, 3, DEFAULT_VNODES]))
    @settings(max_examples=50, deadline=None)
    def test_owners_match_a_clockwise_walk(self, nodes, keys, moves,
                                           vnodes):
        """After any joins and leaves, owners() is the reference walk."""
        ring = HashRing(nodes, vnodes=vnodes)
        for join, name in moves:
            if join and name not in ring:
                ring.add(name)
            elif not join and name in ring and len(ring) > 1:
                ring.remove(name)
        members = ring.nodes
        for key in keys[:40]:
            for count in range(1, len(members) + 2):
                assert ring.owners(key, count) == reference_owners(
                    members, vnodes, key, count)


class TestBoundedMovement:
    @given(nodes=nodes_strategy, keys=keys_strategy)
    @settings(max_examples=50, deadline=None)
    def test_join_moves_only_arc_keys_to_the_joiner(self, nodes, keys):
        """A join moves keys only *onto* the new node, never sideways."""
        ring = HashRing(nodes)
        before = ring.assignments(keys)
        joiner = next(name for name in NODE_NAMES if name not in nodes)
        ring.add(joiner)
        after = ring.assignments(keys)
        for key in moved_keys(before, after):
            assert after[key] == joiner

    @given(nodes=nodes_strategy, keys=keys_strategy)
    @settings(max_examples=50, deadline=None)
    def test_leave_moves_only_the_leavers_keys(self, nodes, keys):
        """A leave moves exactly the departed node's keys, nothing else."""
        ring = HashRing(nodes)
        before = ring.assignments(keys)
        leaver = nodes[0]
        ring.remove(leaver)
        after = ring.assignments(keys)
        moved = set(moved_keys(before, after))
        assert moved == {key for key, owner in before.items()
                        if owner == leaver}

    def test_join_moves_less_than_2_over_n_of_keyspace(self):
        """The acceptance bound: one join moves < 2/N of all keys."""
        nodes = [f"s{i}" for i in range(4)]
        ring = HashRing(nodes)
        keys = [f"k{i}" for i in range(20000)]
        before = ring.assignments(keys)
        ring.add("s4")
        after = ring.assignments(keys)
        moved = moved_keys(before, after)
        # Expect ~1/(N+1) = 20%; assert the issue's 2/N = 50% ceiling
        # with lots of slack, and a sanity floor that something moved.
        assert 0 < len(moved) / len(keys) < 2 / len(nodes)

    def test_rejoin_restores_placement(self):
        """remove(x) then add(x) is placement-neutral (hash stability)."""
        ring = HashRing(["a", "b", "c"])
        keys = list(range(500))
        before = ring.assignments(keys)
        ring.remove("b")
        ring.add("b")
        assert ring.assignments(keys) == before
