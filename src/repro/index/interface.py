"""The multiversion index contract shared by B-link and LSM implementations.

An index entry is ``<IdxKey, Ptr>`` where IdxKey is the record's primary
key (prefix) concatenated with the write timestamp (suffix) and Ptr is the
(file number, offset, size) log pointer (§3.5).  Entries for one key are
therefore clustered, and the entry with the greatest timestamp points at
the current version.

Per the paper's sizing argument, an entry costs about 24 bytes (16 for the
composite key, 8 for the pointer); ``memory_bytes`` accounts with that
figure so capacity experiments match the paper's arithmetic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Container, Iterator

from repro.wal.record import LogPointer

ENTRY_BYTES = 24  # paper's estimate: 16-byte IdxKey + 8-byte Ptr
MAX_TS = 1 << 62  # sentinel above any real timestamp
Row = tuple[bytes, int, LogPointer]  # an entry as (key, timestamp, pointer)


@dataclass(frozen=True)
class IndexEntry:
    """One (key, timestamp) -> pointer mapping."""

    key: bytes
    timestamp: int
    pointer: LogPointer


class MultiversionIndex(ABC):
    """Maps (primary key, timestamp) to log pointers."""

    @abstractmethod
    def insert(self, key: bytes, timestamp: int, pointer: LogPointer) -> None:
        """Add a version.  Re-inserting the same (key, timestamp) replaces
        the pointer (recovery redo relies on this, §3.8)."""

    @abstractmethod
    def delete_key(self, key: bytes) -> int:
        """Remove *all* versions of ``key`` (Delete step 1, §3.6.3).

        Returns the number of entries removed."""

    @abstractmethod
    def lookup_latest(self, key: bytes) -> IndexEntry | None:
        """Entry with the greatest timestamp for ``key``, or None."""

    @abstractmethod
    def lookup_asof(self, key: bytes, timestamp: int) -> IndexEntry | None:
        """Entry with the greatest timestamp <= ``timestamp``, or None.

        This is the historical-read path: "LogBase fetches all index
        entries with the requested key as the prefix and follows the
        pointer of the index entry that has the latest timestamp before
        t_q" (§3.6.2)."""

    @abstractmethod
    def versions(self, key: bytes) -> list[IndexEntry]:
        """All versions of ``key``, oldest first."""

    @abstractmethod
    def range_scan(
        self, start_key: bytes, end_key: bytes
    ) -> Iterator[IndexEntry]:
        """Every entry with start_key <= key < end_key, in (key, timestamp)
        order (all versions; the caller filters to the snapshot it wants)."""

    @abstractmethod
    def entries(self) -> Iterator[IndexEntry]:
        """Every entry in (key, timestamp) order (checkpointing, scans)."""

    @abstractmethod
    def __len__(self) -> int:
        """Total number of entries."""

    def rows(self, skip: Container[int] = ()) -> list[Row]:
        """Every entry as a row, in (key, timestamp) order, but those whose
        pointer's file is in ``skip`` (persistence)."""
        entries = self.entries()
        return [(e.key, e.timestamp, e.pointer) for e in entries if e.pointer.file_no not in skip]

    def repoint(
        self, moved: dict[tuple[bytes, int], LogPointer], retired: Container[int]
    ) -> None:
        """Apply one compaction plan in place: a held version the plan
        ``moved`` takes its new pointer (and leaves the dict), one left in a
        ``retired`` segment that the plan did not carry is dropped.  Nothing
        is added: the index is authoritative for which versions exist.  An
        LSM index's runs are immutable, so its owner rebuilds it instead."""
        raise NotImplementedError(f"{type(self).__name__} is rebuilt, not re-pointed")

    def memory_bytes(self) -> int:
        """Approximate resident memory of the index, paper accounting."""
        return len(self) * ENTRY_BYTES

    def latest_in_range(
        self, start_key: bytes, end_key: bytes, *, as_of: int | None = None
    ) -> Iterator[IndexEntry]:
        """Latest visible version of each key in [start_key, end_key).

        Args:
            as_of: snapshot timestamp; None means "latest committed".
        """
        current_key: bytes | None = None
        best: IndexEntry | None = None
        for entry in self.range_scan(start_key, end_key):
            if as_of is not None and entry.timestamp > as_of:
                continue
            if entry.key != current_key:
                if best is not None:
                    yield best
                current_key = entry.key
                best = entry
            elif best is None or entry.timestamp > best.timestamp:
                best = entry
        if best is not None:
            yield best
