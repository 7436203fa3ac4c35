"""Secondary indexes over column values.

A secondary index maps the *current* value of one column to the set of
primary keys holding it, per tablet server.  Semantics:

* maintained synchronously on the write path (insert/update/delete and
  transactional applies), so lookups are always consistent with the
  primary index's latest versions;
* current-state only — historical secondary queries would require
  multiversion postings, which the paper leaves as future work alongside
  the index itself;
* memory-resident like the primary indexes, and rebuilt after recovery
  from the primary indexes plus the log.

Postings are kept in sorted order by value so the index serves both
equality and value-range lookups.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Iterator

from repro.core.schema import decode_group_value


class SecondaryIndex:
    """Value -> primary keys index for one (table, group, column)."""

    def __init__(self, table: str, group: str, column: str) -> None:
        self.table = table
        self.group = group
        self.column = column
        # sorted list of distinct values, for range lookups
        self._values: list[bytes] = []
        # value -> set of primary keys currently holding it
        self._postings: dict[bytes, set[bytes]] = defaultdict(set)
        # primary key -> (version ts, current value), for update/delete
        self._current: dict[bytes, tuple[int, bytes]] = {}

    def __len__(self) -> int:
        return len(self._current)

    @property
    def distinct_values(self) -> int:
        """Number of distinct column values indexed."""
        return len(self._values)

    # -- maintenance -----------------------------------------------------------

    def apply_write(self, key: bytes, timestamp: int, value: bytes) -> None:
        """Reflect a new version of ``key`` whose column value is ``value``.

        Stale applies (older than the indexed version, e.g. during redo
        replays) are ignored.
        """
        existing = self._current.get(key)
        if existing is not None:
            if existing[0] > timestamp:
                return
            self._unlink(key, existing[1])
        self._current[key] = (timestamp, value)
        if not self._postings[value]:
            bisect.insort(self._values, value)
        self._postings[value].add(key)

    def apply_delete(self, key: bytes) -> None:
        """Remove ``key`` from the index entirely."""
        existing = self._current.pop(key, None)
        if existing is not None:
            self._unlink(key, existing[1])

    def _unlink(self, key: bytes, value: bytes) -> None:
        postings = self._postings.get(value)
        if postings is None:
            return
        postings.discard(key)
        if not postings:
            del self._postings[value]
            idx = bisect.bisect_left(self._values, value)
            if idx < len(self._values) and self._values[idx] == value:
                self._values.pop(idx)

    def clear(self) -> None:
        """Drop all entries (crash simulation / rebuild)."""
        self._values.clear()
        self._postings.clear()
        self._current.clear()

    # -- lookups -----------------------------------------------------------------

    def lookup_equal(self, value: bytes) -> list[bytes]:
        """Primary keys whose current column value equals ``value``."""
        return sorted(self._postings.get(value, ()))

    def lookup_range(self, low: bytes, high: bytes) -> Iterator[tuple[bytes, bytes]]:
        """(value, key) pairs with low <= value < high, value-ordered."""
        start = bisect.bisect_left(self._values, low)
        for i in range(start, len(self._values)):
            value = self._values[i]
            if value >= high:
                return
            for key in sorted(self._postings[value]):
                yield value, key

    def memory_bytes(self) -> int:
        """Approximate resident size (values + postings + back-map)."""
        values = sum(len(v) + 48 for v in self._values)
        postings = sum(len(k) + 16 for keys in self._postings.values() for k in keys)
        current = sum(len(k) + len(v) + 24 for k, (_, v) in self._current.items())
        return values + postings + current


class SecondaryIndexManager:
    """All secondary indexes of one tablet server.

    The tablet server calls :meth:`on_write` / :meth:`on_delete` from its
    apply paths; the manager decodes the group payload and feeds every
    index registered on a column of that group.  Payloads that are not
    column-encoded (opaque benchmark blobs) are skipped silently.
    """

    def __init__(self) -> None:
        # (table, group) -> list of indexes on that group's columns
        self._by_group: dict[tuple[str, str], list[SecondaryIndex]] = {}

    def create(self, table: str, group: str, column: str) -> SecondaryIndex:
        """Register an index on ``table.column`` (stored in ``group``)."""
        indexes = self._by_group.setdefault((table, group), [])
        for index in indexes:
            if index.column == column:
                return index
        index = SecondaryIndex(table, group, column)
        indexes.append(index)
        return index

    def get(self, table: str, column: str) -> SecondaryIndex | None:
        """The index on ``table.column``, if one exists."""
        for indexes in self._by_group.values():
            for index in indexes:
                if index.table == table and index.column == column:
                    return index
        return None

    def indexes(self) -> list[SecondaryIndex]:
        """Every registered index."""
        return [index for indexes in self._by_group.values() for index in indexes]

    def has_any(self) -> bool:
        """Whether any index is registered: one test, as only indexed groups are listed."""
        return bool(self._by_group)

    # -- write-path hooks -------------------------------------------------------

    def on_write(
        self, table: str, group: str, key: bytes, timestamp: int, payload: bytes
    ) -> None:
        """Feed a new version into the affected indexes."""
        indexes = self._by_group.get((table, group))
        if not indexes:
            return
        try:
            columns = decode_group_value(payload)
        except (ValueError, IndexError, UnicodeDecodeError):
            return  # opaque payload: nothing to index
        for index in indexes:
            if index.column in columns:
                index.apply_write(key, timestamp, columns[index.column])

    def on_delete(self, table: str, group: str, key: bytes) -> None:
        """Remove ``key`` from the affected indexes."""
        for index in self._by_group.get((table, group), ()):
            index.apply_delete(key)

    def clear(self) -> None:
        """Drop every index's contents (server crash)."""
        for index in self.indexes():
            index.clear()
