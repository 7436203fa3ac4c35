"""In-memory B-link tree index (§3.5).

"The indexes resemble B-link trees [17] to provide efficient key range
search and concurrency support."  Nodes carry a high key and a right-link
to their split sibling (Lehman & Yao); a traversal that lands on a node
whose high key is below its search key simply follows the link.  In this
single-process simulation the link protocol is exercised structurally
(splits always leave correct links) rather than under true parallelism.

Composite keys are ``(key: bytes, timestamp: int)`` tuples; Python's tuple
ordering gives exactly the prefix-clustered layout the paper describes:
all versions of one record are adjacent, oldest to newest.
"""

from __future__ import annotations

import bisect
from typing import Iterator

from repro.index.interface import IndexEntry, MultiversionIndex, Row
from repro.wal.record import LogPointer

_MAX_TS = 1 << 62  # sentinel above any real timestamp

Composite = tuple[bytes, int]


class _Node:
    """One tree node.  Leaves map composite keys to pointers; internal
    nodes map separator keys to children."""

    __slots__ = ("leaf", "keys", "values", "children", "right", "high_key")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.keys: list[Composite] = []
        self.values: list[LogPointer] = []     # leaves only
        self.children: list[_Node] = []        # internal only
        self.right: _Node | None = None        # B-link right sibling
        self.high_key: Composite | None = None  # None = +infinity


class BLinkTreeIndex(MultiversionIndex):
    """B-link tree over (key, timestamp) composites.

    Args:
        order: maximum keys per node before it splits.
    """

    def __init__(self, order: int = 64) -> None:
        if order < 4:
            raise ValueError("order must be >= 4")
        self._order = order
        self._root: _Node = _Node(leaf=True)
        self._size = 0
        self._height = 1

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Levels in the tree (1 = a single leaf)."""
        return self._height

    # -- descent helpers ------------------------------------------------------

    def _move_right(self, node: _Node, composite: Composite) -> _Node:
        """Follow right-links while the search key exceeds the node's
        high key — the Lehman-Yao step that makes splits safe."""
        while node.high_key is not None and composite >= node.high_key:
            if node.right is None:
                break
            node = node.right
        return node

    def _descend(self, composite: Composite) -> tuple[_Node, list[_Node]]:
        """Find the leaf for ``composite``; returns (leaf, ancestor stack)."""
        stack: list[_Node] = []
        node = self._root
        while not node.leaf:
            node = self._move_right(node, composite)
            stack.append(node)
            idx = bisect.bisect_right(node.keys, composite)
            node = node.children[idx]
        return self._move_right(node, composite), stack

    # -- mutation ---------------------------------------------------------------

    def insert(self, key: bytes, timestamp: int, pointer: LogPointer) -> None:
        composite = (key, timestamp)
        leaf, stack = self._descend(composite)
        idx = bisect.bisect_left(leaf.keys, composite)
        if idx < len(leaf.keys) and leaf.keys[idx] == composite:
            leaf.values[idx] = pointer  # redo replaces (§3.8)
            return
        leaf.keys.insert(idx, composite)
        leaf.values.insert(idx, pointer)
        self._size += 1
        self._split_upwards(leaf, stack)

    def _split_upwards(self, node: _Node, stack: list[_Node]) -> None:
        while len(node.keys) > self._order:
            separator, sibling = self._split(node)
            if stack:
                parent = stack.pop()
                idx = bisect.bisect_right(parent.keys, separator)
                parent.keys.insert(idx, separator)
                parent.children.insert(idx + 1, sibling)
                node = parent
            else:
                root = _Node(leaf=False)
                root.keys = [separator]
                root.children = [node, sibling]
                self._root = root
                self._height += 1
                return

    def _split(self, node: _Node) -> tuple[Composite, _Node]:
        """Split ``node``, returning (separator, new right sibling)."""
        mid = len(node.keys) // 2
        sibling = _Node(leaf=node.leaf)
        sibling.right = node.right
        sibling.high_key = node.high_key
        if node.leaf:
            sibling.keys = node.keys[mid:]
            sibling.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            separator = sibling.keys[0]
        else:
            # The middle key moves up; it separates node from sibling.
            separator = node.keys[mid]
            sibling.keys = node.keys[mid + 1 :]
            sibling.children = node.children[mid + 1 :]
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]
        node.right = sibling
        node.high_key = separator
        return separator, sibling

    def delete_key(self, key: bytes) -> int:
        """Remove every version of ``key`` (no node merging — B-link trees
        commonly delete lazily, and an emptied leaf stays on the chain)."""
        removed = 0
        leaf, _ = self._descend((key, 0))
        while leaf is not None:
            idx = bisect.bisect_left(leaf.keys, (key, 0))
            while idx < len(leaf.keys) and leaf.keys[idx][0] == key:
                leaf.keys.pop(idx)
                leaf.values.pop(idx)
                removed += 1
            if leaf.keys and leaf.keys[-1][0] > key:
                break
            if idx < len(leaf.keys):
                break
            leaf = leaf.right
        self._size -= removed
        return removed

    def repoint(self, moved, retired) -> None:
        """One walk of the leaf chain, no insert and no split; it stops
        early once nothing is left to move and nothing is retired."""
        leaf, _ = self._descend((b"", 0))
        take = moved.pop
        while leaf is not None and (moved or retired):
            values = leaf.values
            dropped = 0
            for i, composite in enumerate(leaf.keys):
                pointer = take(composite, None)
                if pointer is not None:
                    values[i] = pointer
                elif values[i].file_no in retired:
                    values[i] = None
                    dropped += 1
            if dropped:
                leaf.keys = [k for k, v in zip(leaf.keys, values) if v is not None]
                leaf.values = [v for v in values if v is not None]
                self._size -= dropped
            leaf = leaf.right

    # -- queries -------------------------------------------------------------------

    def _iterate_from(self, composite: Composite) -> Iterator[tuple[Composite, LogPointer]]:
        leaf, _ = self._descend(composite)
        idx = bisect.bisect_left(leaf.keys, composite)
        while leaf is not None:
            while idx < len(leaf.keys):
                yield leaf.keys[idx], leaf.values[idx]
                idx += 1
            leaf = leaf.right
            idx = 0

    def lookup_latest(self, key: bytes) -> IndexEntry | None:
        best: IndexEntry | None = None
        for (entry_key, ts), pointer in self._iterate_from((key, 0)):
            if entry_key != key:
                break
            best = IndexEntry(entry_key, ts, pointer)
        return best

    def lookup_asof(self, key: bytes, timestamp: int) -> IndexEntry | None:
        best: IndexEntry | None = None
        for (entry_key, ts), pointer in self._iterate_from((key, 0)):
            if entry_key != key or ts > timestamp:
                break
            best = IndexEntry(entry_key, ts, pointer)
        return best

    def versions(self, key: bytes) -> list[IndexEntry]:
        found = []
        for (entry_key, ts), pointer in self._iterate_from((key, 0)):
            if entry_key != key:
                break
            found.append(IndexEntry(entry_key, ts, pointer))
        return found

    def range_scan(self, start_key: bytes, end_key: bytes) -> Iterator[IndexEntry]:
        for (entry_key, ts), pointer in self._iterate_from((start_key, 0)):
            if entry_key >= end_key:
                break
            yield IndexEntry(entry_key, ts, pointer)

    def entries(self) -> Iterator[IndexEntry]:
        for (entry_key, ts), pointer in self._iterate_from((b"", 0)):
            yield IndexEntry(entry_key, ts, pointer)

    def rows(self) -> list[Row]:
        chain = self._iterate_from((b"", 0))
        return [(key, ts, pointer) for (key, ts), pointer in chain]

    # -- structural checks (used by property tests) ----------------------------------

    def check_invariants(self) -> None:
        """Validate ordering, fanout and link invariants; raises AssertionError."""
        self._check_node(self._root, None, None)
        flat = [entry.key + entry.timestamp.to_bytes(8, "big") for entry in self.entries()]
        assert flat == sorted(flat), "leaf chain out of order"

    def _check_node(self, node: _Node, low: Composite | None, high: Composite | None) -> None:
        assert node.keys == sorted(node.keys), "node keys unsorted"
        assert len(node.keys) <= self._order, "node over capacity"
        if low is not None and node.keys:
            assert node.keys[0] >= low, "key below subtree bound"
        if high is not None and node.keys:
            assert node.keys[-1] < high, "key above subtree bound"
        if node.high_key is not None and node.keys:
            assert node.keys[-1] < node.high_key or node.leaf, "high key violated"
        if not node.leaf:
            assert len(node.children) == len(node.keys) + 1, "fanout mismatch"
            bounds = [low, *node.keys, high]
            for i, child in enumerate(node.children):
                self._check_node(child, bounds[i], bounds[i + 1])
