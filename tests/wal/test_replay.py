"""The redo rule on its own: the commit gate and the timestamp-ordered
apply (its four hosts — restart, parallel restart, adoption, follower
tail — have their own suites)."""

import dataclasses

from repro.index.blink import BLinkTreeIndex
from repro.wal.record import (
    LogPointer,
    LogRecord,
    RecordType,
    abort_record,
    commit_record,
)
from repro.wal.replay import CommitGate, as_committed, redo


def data(kind: RecordType, key: bytes, ts: int, txn: int = 0) -> LogRecord:
    return LogRecord(
        record_type=kind, txn_id=txn, table="t", tablet="t#0", key=key, group="g",
        timestamp=ts, value=b"v" if kind is RecordType.WRITE else None,
    )


def write(key: bytes, ts: int, txn: int = 0) -> LogRecord:
    return data(RecordType.WRITE, key, ts, txn)


def delete(key: bytes, ts: int, txn: int = 0) -> LogRecord:
    return data(RecordType.INVALIDATE, key, ts, txn)


def run_gate(records, committed=False):
    """Feed ``records`` at offsets 0, 1, 2, …; returns the gate and the
    offsets of the records it released, in release order."""
    released: list[int] = []

    def apply(pointer, record) -> bool:
        released.append(pointer.offset)
        return True

    gate = CommitGate(apply)
    landed = [
        gate.feed(LogPointer(1, offset, 1), record, committed)
        for offset, record in enumerate(records)
    ]
    return gate, released, landed


# -- the gate --------------------------------------------------------------------


def test_auto_commit_is_released_where_it_is_scanned():
    gate, released, landed = run_gate([write(b"a", 1), delete(b"a", 2)])
    assert released == [0, 1]
    assert landed == [1, 1]
    assert gate.uncommitted == 0
    assert gate.watermark == 2


def test_commit_releases_its_transaction_in_append_order():
    gate, released, landed = run_gate(
        [
            write(b"a", 5, txn=7),
            write(b"x", 3),  # an auto-commit interleaved with the transaction
            delete(b"b", 5, txn=7),
            write(b"c", 6, txn=8),
            commit_record(7, 5),
        ]
    )
    assert released == [1, 0, 2]
    assert landed == [0, 1, 0, 0, 2]
    assert gate.uncommitted == 1  # txn 8 never committed
    assert gate.watermark == 5


def test_abort_drops_but_later_records_of_the_same_id_stay_buffered():
    gate, released, _ = run_gate(
        [write(b"a", 5, txn=7), abort_record(7), write(b"b", 6, txn=7)]
    )
    assert released == []
    assert gate.uncommitted == 1
    assert gate.watermark == 0


def test_committed_flag_bypasses_the_gate():
    """A sorted run holds survivors only: no marker will ever arrive."""
    gate, released, _ = run_gate([write(b"a", 5, txn=7)], committed=True)
    assert released == [0]
    assert gate.uncommitted == 0


def test_markers_of_unknown_transactions_are_harmless():
    gate, released, landed = run_gate([commit_record(9, 4), abort_record(10)])
    assert released == [] and landed == [0, 0]
    assert gate.watermark == 4


# -- redo ------------------------------------------------------------------------


def versions(index, key):
    return [(e.timestamp, e.pointer.offset) for e in index.versions(key)]


def test_write_scanned_after_its_tombstone_is_dropped():
    index, marks = BLinkTreeIndex(), {}
    assert redo(index, LogPointer(1, 0, 1), delete(b"a", 10), marks)
    assert not redo(index, LogPointer(2, 0, 1), write(b"a", 10), marks)
    assert not redo(index, LogPointer(2, 1, 1), write(b"a", 4), marks)
    assert redo(index, LogPointer(2, 2, 1), write(b"a", 11), marks)  # a rebirth
    assert versions(index, b"a") == [(11, 2)]


def test_tombstone_scanned_after_a_newer_version_keeps_it():
    index, marks = BLinkTreeIndex(), {}
    for offset, ts in enumerate((3, 7, 12)):
        redo(index, LogPointer(1, offset, 1), write(b"a", ts), marks)
    redo(index, LogPointer(1, 9, 1), write(b"b", 5), marks)
    assert redo(index, LogPointer(2, 0, 1), delete(b"a", 7), marks)
    assert versions(index, b"a") == [(12, 2)]
    assert versions(index, b"b") == [(5, 9)]


def test_the_mark_only_moves_forward():
    marks = {}
    redo(BLinkTreeIndex(), LogPointer(1, 0, 1), delete(b"a", 10), marks)
    redo(BLinkTreeIndex(), LogPointer(1, 1, 1), delete(b"a", 6), marks)
    assert marks == {("t", "g", b"a"): 10}


def test_uncovered_record_still_moves_the_mark():
    marks = {}
    assert not redo(None, LogPointer(1, 0, 1), delete(b"a", 10), marks)
    assert not redo(None, LogPointer(1, 1, 1), write(b"b", 3), marks)
    assert marks == {("t", "g", b"a"): 10}
    # The tablet arrives later in the same scan: the mark still shadows.
    index = BLinkTreeIndex()
    assert not redo(index, LogPointer(1, 2, 1), write(b"a", 9), marks)
    assert len(index) == 0


def test_redo_is_idempotent_at_key_timestamp():
    index, marks = BLinkTreeIndex(), {}
    redo(index, LogPointer(1, 0, 1), write(b"a", 5), marks)
    redo(index, LogPointer(4, 8, 1), write(b"a", 5), marks)  # re-homed copy
    assert [(e.timestamp, e.pointer.file_no) for e in index.versions(b"a")] == [(5, 4)]


# -- as_committed ------------------------------------------------------------------


def test_as_committed_strips_only_the_transaction_id():
    record = write(b"a", 5, txn=7)
    stamped = as_committed(record)
    assert stamped == dataclasses.replace(record, txn_id=0)
    assert as_committed(stamped) is stamped
