"""An intrusive doubly-linked list keyed by hashable keys.

SIEVE needs a queue supporting O(1) removal of arbitrary elements
*and* stable node identity so that its "hand" pointer can survive
unrelated insertions and removals -- something neither
:class:`collections.deque` nor :class:`collections.OrderedDict`
provides directly.

The list orders nodes from *head* (most recently inserted, for queue
semantics) to *tail* (oldest).  A companion dict maps keys to nodes for
O(1) lookup.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterator, Optional, TypeVar

K = TypeVar("K", bound=Hashable)


class Node(Generic[K]):
    """A linked-list node carrying a key and generic metadata slots."""

    __slots__ = ("key", "prev", "next", "visited", "freq", "extra")

    def __init__(self, key: K) -> None:
        self.key = key
        self.prev: Optional["Node[K]"] = None
        self.next: Optional["Node[K]"] = None
        # Metadata commonly needed by CLOCK-family algorithms.  Keeping
        # them on the node avoids a parallel dict and halves lookups.
        self.visited: bool = False
        self.freq: int = 0
        self.extra: object = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Node {self.key!r} visited={self.visited} freq={self.freq}>"


class LinkedList(Generic[K]):
    """Doubly-linked list with O(1) push/pop at both ends and removal.

    ``head`` is where new elements are pushed (``push_head``); ``tail``
    is the eviction end.  Iteration runs head -> tail.
    """

    def __init__(self) -> None:
        self.head: Optional[Node[K]] = None
        self.tail: Optional[Node[K]] = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[Node[K]]:
        node = self.head
        while node is not None:
            # Capture next before yielding so callers may remove the
            # yielded node safely.
            nxt = node.next
            yield node
            node = nxt

    def push_head(self, node: Node[K]) -> Node[K]:
        """Insert *node* at the head and return it."""
        node.prev = None
        node.next = self.head
        if self.head is not None:
            self.head.prev = node
        self.head = node
        if self.tail is None:
            self.tail = node
        self._size += 1
        return node

    def push_tail(self, node: Node[K]) -> Node[K]:
        """Insert *node* at the tail and return it."""
        node.next = None
        node.prev = self.tail
        if self.tail is not None:
            self.tail.next = node
        self.tail = node
        if self.head is None:
            self.head = node
        self._size += 1
        return node

    def remove(self, node: Node[K]) -> Node[K]:
        """Unlink *node* from the list and return it."""
        prev, nxt = node.prev, node.next
        if prev is not None:
            prev.next = nxt
        else:
            self.head = nxt
        if nxt is not None:
            nxt.prev = prev
        else:
            self.tail = prev
        node.prev = node.next = None
        self._size -= 1
        return node

    def pop_tail(self) -> Node[K]:
        """Remove and return the tail node.

        Raises ``IndexError`` when the list is empty.
        """
        if self.tail is None:
            raise IndexError("pop from empty LinkedList")
        return self.remove(self.tail)

    def pop_head(self) -> Node[K]:
        """Remove and return the head node.

        Raises ``IndexError`` when the list is empty.
        """
        if self.head is None:
            raise IndexError("pop from empty LinkedList")
        return self.remove(self.head)

    def move_to_head(self, node: Node[K]) -> None:
        """Relocate *node* to the head (most-recent end)."""
        if self.head is node:
            return
        self.remove(node)
        self.push_head(node)

    def keys(self) -> Iterator[K]:
        """Iterate keys head -> tail."""
        for node in self:
            yield node.key


class KeyedList(Generic[K]):
    """A :class:`LinkedList` plus a key -> node index.

    This is the workhorse container for queue-structured policies: O(1)
    membership, O(1) arbitrary removal, O(1) push/pop at both ends.
    """

    def __init__(self) -> None:
        self.list: LinkedList[K] = LinkedList()
        self.index: Dict[K, Node[K]] = {}

    def __len__(self) -> int:
        return len(self.list)

    def __contains__(self, key: K) -> bool:
        return key in self.index

    def __bool__(self) -> bool:
        return bool(self.list)

    def __iter__(self) -> Iterator[Node[K]]:
        return iter(self.list)

    def get(self, key: K) -> Optional[Node[K]]:
        """Return the node for *key*, or None."""
        return self.index.get(key)

    def node(self, key: K) -> Node[K]:
        """Return the node for *key*; raises ``KeyError`` if absent."""
        return self.index[key]

    def push_head(self, key: K) -> Node[K]:
        """Create a node for *key* and insert it at the head."""
        if key in self.index:
            raise KeyError(f"duplicate key {key!r}")
        node = Node(key)
        self.index[key] = node
        return self.list.push_head(node)

    def push_tail(self, key: K) -> Node[K]:
        """Create a node for *key* and insert it at the tail."""
        if key in self.index:
            raise KeyError(f"duplicate key {key!r}")
        node = Node(key)
        self.index[key] = node
        return self.list.push_tail(node)

    def push_head_node(self, node: Node[K]) -> Node[K]:
        """Insert an existing (detached) *node* at the head."""
        if node.key in self.index:
            raise KeyError(f"duplicate key {node.key!r}")
        self.index[node.key] = node
        return self.list.push_head(node)

    def remove(self, key: K) -> Node[K]:
        """Remove *key*'s node; raises ``KeyError`` if absent."""
        node = self.index.pop(key)
        return self.list.remove(node)

    def remove_node(self, node: Node[K]) -> Node[K]:
        """Remove an in-list *node* by identity."""
        del self.index[node.key]
        return self.list.remove(node)

    def pop_tail(self) -> Node[K]:
        """Remove and return the tail node; ``IndexError`` when empty."""
        node = self.list.pop_tail()
        del self.index[node.key]
        return node

    def pop_head(self) -> Node[K]:
        """Remove and return the head node; ``IndexError`` when empty."""
        node = self.list.pop_head()
        del self.index[node.key]
        return node

    def move_to_head(self, key: K) -> Node[K]:
        """Move *key*'s node to the head; raises ``KeyError`` if absent."""
        node = self.index[key]
        self.list.move_to_head(node)
        return node

    @property
    def head(self) -> Optional[Node[K]]:
        """The head (most recently inserted) node, or None."""
        return self.list.head

    @property
    def tail(self) -> Optional[Node[K]]:
        """The tail (oldest) node, or None."""
        return self.list.tail

    def keys(self) -> Iterator[K]:
        """Iterate keys head -> tail."""
        return self.list.keys()


__all__ = ["Node", "LinkedList", "KeyedList"]
