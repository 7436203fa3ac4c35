"""The one log reader (:class:`repro.wal.replay.LogCursor`): reads cut
into single records resume to the index state one read of the whole log
leaves, however the log changes between them — the segment the cursor
stands in retired, runs installed past it, and a run it is halfway
through merged away."""

from collections import defaultdict

import pytest

from repro.config import LogBaseConfig
from repro.coordination.tso import TimestampOracle
from repro.coordination.znodes import CoordinationService
from repro.core.partition import KeyRange
from repro.core.tablet import Tablet, TabletId
from repro.core.tablet_server import TabletServer
from repro.index.blink import BLinkTreeIndex
from repro.wal.replay import LogCursor, redo, redo_rows


def replica(log, run_rows: bool):
    """A cursor over ``log`` and the indexes its reads redo into; a run's
    rows go through ``redo_rows``, or to ``apply`` as records."""
    cursor = LogCursor(log)
    indexes = defaultdict(BLinkTreeIndex)

    def apply(pointer, record) -> bool:
        index = indexes[record.table, record.group]
        return redo(index, pointer, record, cursor.tombstones)

    def rows(scope, rows, marks) -> int:
        return redo_rows(scope, rows, marks, lambda *_: indexes[scope], cursor.tombstones)

    return cursor, indexes, (apply, rows if run_rows else None)


def live_state(log, indexes):
    """Each index's entries into files the log still lists (a version a
    plan dropped outright stays behind in a stepped reader, as a
    follower's ``drop_dead`` knows)."""
    return {
        scope: sorted(
            (entry.key, entry.timestamp, entry.pointer)
            for entry in index.entries()
            if log.has_segment(entry.pointer.file_no)
        )
        for scope, index in indexes.items()
    }


@pytest.mark.parametrize("run_rows", [True, False], ids=["rows", "records"])
def test_single_record_reads_end_where_one_read_ends(dfs, machines, schema, run_rows):
    config = LogBaseConfig(segment_size=1024, compaction_tier_fanout=2)
    server = TabletServer("ts-0", machines[0], dfs, TimestampOracle(CoordinationService()), config)
    server.assign_tablet(Tablet(TabletId("events", 0), KeyRange(b"", None), schema))
    log = server.log
    stepper, stepped, hooks = replica(log, run_rows)

    def write(start: int, n: int) -> None:
        for i in range(start, start + n):
            server.write("events", b"k%02d" % (i % 12), {"payload": bytes([i]) * 40})
            if i % 5 == 4:
                server.delete("events", b"k%02d" % (i % 7), "payload")

    write(0, 30)
    for _ in range(5):
        assert not stepper.read(*hooks, limit=1)
    segment = stepper._file
    server.compact()
    assert not log.has_segment(segment)  # retired under the cursor
    write(30, 30)
    server.compact()  # a second run, a merge's input next round
    while not (log.is_sorted_segment(stepper._file) and stepper._offset > 0):
        assert not stepper.read(*hooks, limit=1)
    run = stepper._file
    server.compact()
    assert not log.has_segment(run)  # merged away halfway through
    write(60, 10)
    while not stepper.read(*hooks, limit=1):
        pass

    whole, indexes, whole_hooks = replica(log, run_rows)
    assert whole.read(*whole_hooks)
    assert live_state(log, stepped) == live_state(log, indexes)
    assert stepper.gate.watermark == whole.gate.watermark
