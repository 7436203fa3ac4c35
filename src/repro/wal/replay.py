"""The redo rule (§3.8): how a scanned log becomes index state.

The log is the only repository, so every way a server comes to hold a
tablet — restart, parallel restart, adopting a dead peer's split file,
migration catch-up, tailing as a read replica — is the same act: scan
somebody's log and decide, record by record, what takes effect.  That
decision has two halves and both live here, once.

**The commit gate** (:class:`CommitGate`).  MVOCC defers every
modification to commit time, so redo needs no undo: an auto-committed
record (``txn_id`` 0) takes effect where the scan meets it, a
transaction's records are buffered and take effect, in append order, when
the scan meets its COMMIT, an ABORT drops what was buffered, and whatever
is still buffered when the scan ends never committed.  Records of a
sorted run are committed by construction (compaction re-emits survivors
through :func:`as_committed` and drops the markers), so their readers
pass ``committed=True``.

**The timestamp rule** (:func:`redo`).  File order is not version order.
Compaction re-homes versions and re-emits tombstones into sorted runs, so
a scan can meet a write *after* the tombstone that shadows it (the marker
still sits in the unsorted tail while a merge put the old version in a
higher-numbered run) or a tombstone *after* a newer version it must not
touch.  Timestamps disambiguate, because the TSO makes any legitimate
rebirth strictly newer than the delete: a write at or below its key's
delete high-water mark is dead whatever the scan order, and an INVALIDATE
kills the versions at or below its own timestamp only.  The marks persist
for as long as the scan does (``tombstones``), and a record no local
tablet covers still moves its key's mark.

**Persisted rows** (:func:`redo_rows`): a run's index file and a
checkpoint's tail file hold committed rows, applied by the same rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.wal.record import LogPointer, LogRecord, RecordType

if TYPE_CHECKING:  # pragma: no cover - repro.index imports repro.wal
    from repro.index.interface import IndexEntry, MultiversionIndex, Row

Tombstones = dict[tuple[str, str, bytes], int]  # (table, group, key) -> delete mark


class CommitGate:
    """Feeds ``apply(pointer, record)`` each data record as it takes effect.

    ``apply`` returns whether an index effect landed; :meth:`feed` passes
    the count back.  ``watermark`` is the highest commit timestamp let
    through — an auto-commit's own or a COMMIT marker's, which MVOCC also
    stamps on every record of the transaction.
    """

    __slots__ = ("_apply", "_pending", "watermark")

    def __init__(self, apply: Callable[[LogPointer, LogRecord], bool]) -> None:
        self._apply = apply
        self._pending: dict[int, list[tuple[LogPointer, LogRecord]]] = {}
        self.watermark = 0

    def feed(self, pointer: LogPointer, record: LogRecord, committed: bool = False) -> int:
        """Pass one scanned record through the gate."""
        kind = record.record_type
        if kind is RecordType.WRITE or kind is RecordType.INVALIDATE:
            if record.txn_id == 0 or committed:
                if record.timestamp > self.watermark:
                    self.watermark = record.timestamp
                return self._apply(pointer, record)
            self._pending.setdefault(record.txn_id, []).append((pointer, record))
        elif kind is RecordType.COMMIT:
            if record.timestamp > self.watermark:
                self.watermark = record.timestamp
            landed = 0
            for buffered_pointer, buffered in self._pending.pop(record.txn_id, ()):
                landed += self._apply(buffered_pointer, buffered)
            return landed
        elif kind is RecordType.ABORT:
            self._pending.pop(record.txn_id, None)
        return 0

    @property
    def uncommitted(self) -> int:
        """Records still buffered: their transaction has not committed."""
        return sum(len(buffered) for buffered in self._pending.values())


def redo(
    index: MultiversionIndex | None,
    pointer: LogPointer,
    record: LogRecord,
    tombstones: Tombstones,
) -> bool:
    """Apply one effective WRITE or INVALIDATE; True if ``index`` changed.

    ``index`` is None when no local tablet covers the record.
    """
    timestamp = record.timestamp
    slot = (record.table, record.group, record.key)
    if record.record_type is RecordType.WRITE:
        if index is None or tombstones.get(slot, -1) >= timestamp:
            return False
        index.insert(record.key, timestamp, pointer)
        return True
    if tombstones.get(slot, -1) < timestamp:
        tombstones[slot] = timestamp
    if index is None:
        return False
    keep_versions(index, record.key, lambda entry: entry.timestamp > timestamp)
    return True


def redo_rows(
    scope: tuple[str, str], rows: list[Row], marks: int,
    index_of: Callable[[bytes, int], MultiversionIndex | None], tombstones: Tombstones,
) -> int:
    """Redo the rows of a persisted index file of ``scope``, the first
    ``marks`` of them delete marks (INVALIDATEs), into ``index_of(key,
    timestamp)`` (None: nowhere); returns how many took effect.  A version
    at or below its key's mark is skipped, as in :func:`redo`, so files
    may come in any order, and twice."""
    table, group = scope
    applied = 0
    for i, (key, timestamp, pointer) in enumerate(rows):
        index = index_of(key, timestamp)
        if i < marks:
            marker = LogRecord(
                RecordType.INVALIDATE, table=table, key=key, group=group, timestamp=timestamp
            )
            applied += redo(index, pointer, marker, tombstones)
        elif index is not None and tombstones.get((table, group, key), -1) < timestamp:
            index.insert(key, timestamp, pointer)
            applied += 1
    return applied


def keep_versions(
    index: MultiversionIndex, key: bytes, keep: Callable[[IndexEntry], bool]
) -> None:
    """Drop every version of ``key`` that ``keep`` rejects (the index
    contract deletes by key, so the survivors are put back)."""
    survivors = [entry for entry in index.versions(key) if keep(entry)]
    index.delete_key(key)
    for entry in survivors:
        index.insert(entry.key, entry.timestamp, entry.pointer)


def as_committed(record: LogRecord) -> LogRecord:
    """``record`` stamped auto-committed (``txn_id`` 0).

    Whoever re-homes an effective record — compaction into a sorted run,
    adoption into the adopter's log — leaves its COMMIT marker behind;
    stamping the copy means a later scan does not hold it hostage to a
    marker that no longer exists.
    """
    if record.txn_id == 0:
        return record
    return LogRecord(
        record_type=record.record_type,
        lsn=record.lsn,
        txn_id=0,
        table=record.table,
        tablet=record.tablet,
        key=record.key,
        group=record.group,
        timestamp=record.timestamp,
        value=record.value,
    )
