"""The redo rule (§3.8): how a log becomes index state, and the one reader.

The log is the only repository, so every way a server comes to hold a
tablet — restart, parallel restart, adopting a dead peer's split file,
migration catch-up, tailing as a read replica — is the same act: read
somebody's log from a position with a :class:`LogCursor` and decide,
record by record, what takes effect.  Each caller keeps only its apply
side: an index insert, a re-home append, a parallel enqueue.

**The commit gate** (:class:`CommitGate`).  MVOCC defers every
modification to commit time, so redo needs no undo: an auto-committed
record (``txn_id`` 0) takes effect where the scan meets it, a
transaction's records are buffered and take effect, in append order, when
the scan meets its COMMIT, an ABORT drops what was buffered, and whatever
is still buffered when the scan ends never committed.  A sorted run is
committed by construction (compaction re-emits survivors through
:func:`as_committed` and drops the markers), so the cursor reads it as
the rows of its index file, past the gate.

**The timestamp rule** (:func:`redo`).  File order is not version order.
Compaction re-homes versions and re-emits tombstones into sorted runs, so
a scan can meet a write *after* the tombstone that shadows it (the marker
still sits in the unsorted tail while a merge put the old version in a
higher-numbered run) or a tombstone *after* a newer version it must not
touch.  Timestamps disambiguate, because the TSO makes any legitimate
rebirth strictly newer than the delete: a write at or below its key's
delete high-water mark is dead whatever the scan order, and an INVALIDATE
kills the versions at or below its own timestamp only.  The marks persist
for as long as the cursor does (``tombstones``), and a record no local
tablet covers still moves its key's mark.

**Persisted rows** (:func:`redo_rows`): a run's index file and a
checkpoint's tail file hold committed rows, applied by the same rule.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from repro.wal.record import LogPointer, LogRecord, RecordType

if TYPE_CHECKING:  # pragma: no cover - repro.index imports repro.wal
    from repro.index.interface import IndexEntry, MultiversionIndex, Row
    from repro.wal.repository import LogRepository

Tombstones = dict[tuple[str, str, bytes], int]  # (table, group, key) -> delete mark
Apply = Callable[[LogPointer, LogRecord], bool]
MARKERS = (RecordType.COMMIT, RecordType.ABORT)  # reach every tablet's gate


class CommitGate:
    """Feeds ``apply(pointer, record)`` each data record as it takes effect.

    ``apply`` returns whether an index effect landed; :meth:`feed` passes
    the count back.  ``watermark`` is the highest commit timestamp let
    through — an auto-commit's own or a COMMIT marker's, which MVOCC also
    stamps on every record of the transaction.
    """

    __slots__ = ("apply", "_pending", "watermark")

    def __init__(self, apply: Apply | None) -> None:
        self.apply = apply
        self._pending: dict[int, list[tuple[LogPointer, LogRecord]]] = {}
        self.watermark = 0

    def feed(self, pointer: LogPointer, record: LogRecord, committed: bool = False) -> int:
        """Pass one scanned record through the gate."""
        kind = record.record_type
        if kind is RecordType.WRITE or kind is RecordType.INVALIDATE:
            if record.txn_id == 0 or committed:
                if record.timestamp > self.watermark:
                    self.watermark = record.timestamp
                return self.apply(pointer, record)
            self._pending.setdefault(record.txn_id, []).append((pointer, record))
        elif kind is RecordType.COMMIT:
            if record.timestamp > self.watermark:
                self.watermark = record.timestamp
            landed = 0
            for buffered_pointer, buffered in self._pending.pop(record.txn_id, ()):
                landed += self.apply(buffered_pointer, buffered)
            return landed
        elif kind is RecordType.ABORT:
            self._pending.pop(record.txn_id, None)
        return 0

    @property
    def uncommitted(self) -> int:
        """Records still buffered: their transaction has not committed."""
        return sum(len(buffered) for buffered in self._pending.values())


class LogCursor:
    """A resumable reader of one log from a position ``(file_no, offset)``.

    It reads the files the log lists from there in file order: a segment
    frame by frame through the cursor's :class:`CommitGate` (a record at or
    below ``min_lsn``, which the checkpoint holds, is counted, not fed), a
    sorted run once, as its index rows, delete marks first.  ``keep(table,
    key)`` drops other tablets' data records.  A run is numbered past the
    segments it was written from, and a segment grows only while no higher
    file exists, so a read resumes where the last stopped even after its
    file was retired (the next holds the rest) or runs were installed.
    """

    def __init__(
        self,
        repo: LogRepository,
        *,
        position: tuple[int, int] = (0, 0),
        min_lsn: int = 0,
        keep: Callable[[str, bytes], bool] | None = None,
    ) -> None:
        self.repo = repo
        self.gate = CommitGate(None)
        self.tombstones: Tombstones = {}
        self.min_lsn = self.max_lsn = min_lsn
        self.scanned = self.applied = 0  # records and rows read; effects
        self._file, self._offset = position  # in a run, the offset counts rows
        self._keep = keep
        self._fetched: dict[int, object] = {}  # file -> its frames or rows

    def pending(self) -> list[int]:
        """The files a read takes next, in order."""
        return [file_no for file_no in self.repo.segments() if file_no >= self._file]

    def fetch(self, file_no: int) -> None:
        """Read a pending file now for :meth:`read` (parallel restart lanes)."""
        if self.repo.is_sorted_segment(file_no):
            self._fetched[file_no] = self._run_rows(file_no)
        else:
            start = self._offset if file_no == self._file else 0
            self._fetched[file_no] = list(self.repo.scan_segment(file_no, start_offset=start))

    def read(self, apply: Apply, rows=None, *, limit: int | None = None) -> bool:
        """Feed each data record the gate lets through to ``apply(pointer,
        record)`` and each run's rows to ``rows(scope, rows, marks)`` —
        or to ``apply`` as records without values when ``rows`` is None;
        both return what took effect.  Stops after ``limit`` records and
        rows; returns whether it reached the end of the log."""
        self.gate.apply = apply
        budget = math.inf if limit is None else limit
        for file_no in self.pending():
            if file_no != self._file:
                self._fetched.pop(self._file, None)  # a run cut short, now retired
                self._file, self._offset = file_no, 0
            scope = self.repo.segment_scope(file_no)
            if scope is None:
                budget = self._read_frames(file_no, budget)
            else:
                budget = self._read_run(file_no, scope, rows or self._as_records, budget)
            if budget is None:
                return False
        return True

    def _read_frames(self, file_no: int, budget: float) -> float | None:
        keep, feed, min_lsn = self._keep, self.gate.feed, self.min_lsn
        frames = self._fetched.pop(file_no, None)
        if frames is None:
            frames = self.repo.scan_segment(file_no, start_offset=self._offset)
        for pointer, record in frames:
            if not budget:
                return None
            budget -= 1
            self.scanned += 1
            self._offset = pointer.offset + pointer.size
            if record.lsn > self.max_lsn:
                self.max_lsn = record.lsn
            if record.lsn > min_lsn and (
                keep is None or record.record_type in MARKERS
                or keep(record.table, record.key)
            ):
                self.applied += feed(pointer, record)
        return budget

    def _run_rows(self, file_no: int) -> tuple[list[Row], int]:
        versions, marks = self.repo.read_run_index(file_no)
        return marks + versions, len(marks)

    def _read_run(self, file_no: int, scope: tuple[str, str], take, budget: float) -> float | None:
        fetched = self._fetched.pop(file_no, None) or self._run_rows(file_no)
        entries, start = fetched[0], self._offset
        end = start + min(len(entries) - start, budget)
        chunk = entries[start:end]
        if chunk:  # every row moves the watermark, taken or not
            self.gate.watermark = max(self.gate.watermark, *(row[1] for row in chunk))
        self.scanned += end - start
        self.applied += take(scope, chunk, max(0, fetched[1] - start))
        if end < len(entries):  # cut short: keep the rows for the next read
            self._offset = end
            self._fetched[file_no] = fetched
            return None
        self._file, self._offset = file_no + 1, 0  # a run never grows
        return budget - (end - start)

    def _as_records(self, scope: tuple[str, str], rows: list[Row], marks: int) -> int:
        (table, group), keep = scope, self._keep
        return sum(
            self.gate.apply(pointer, LogRecord(
                RecordType.INVALIDATE if i < marks else RecordType.WRITE,
                table=table, key=key, group=group, timestamp=timestamp,
            ))
            for i, (key, timestamp, pointer) in enumerate(rows)
            if keep is None or keep(table, key)
        )


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
