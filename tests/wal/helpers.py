"""Shared helpers for the WAL tests."""

from repro.errors import CorruptLogRecord
from repro.wal.compaction import CompactionResult, IncrementalCompactionJob
from repro.wal.planner import CompactionPlan
from repro.wal.record import LogRecord


def compact_whole_log(repo, segments=None, **job_options) -> CompactionResult:
    """Compact ``segments`` (default: every segment, sorted runs included)
    with one tail plan — the whole-log vacuum of §3.6.5."""
    inputs = tuple(repo.segments() if segments is None else segments)
    plan = CompactionPlan("tail", inputs, sum(repo.segment_bytes(f) for f in inputs))
    return IncrementalCompactionJob(repo, plan, **job_options).run()


def indexed(result: CompactionResult) -> list[tuple]:
    """``result``'s surviving versions as ``(table, group, key, timestamp,
    pointer)``, scope by scope, each scope in file order."""
    return [
        (table, group, *entry)
        for (table, group), entries in result.index_entries.items()
        for entry in entries
    ]


def read_record(repo, pointer) -> LogRecord:
    """The whole record at ``pointer``, once ``repo.read`` has returned
    its value (asserted)."""
    value = repo.read(pointer)
    record = _frame_record(repo, pointer)
    assert value == record.value
    return record


def read_records(repo, pointers) -> list[LogRecord]:
    """The whole records at ``pointers``, once ``repo.read_many`` has
    returned their values (asserted)."""
    values = repo.read_many(pointers)
    records = [_frame_record(repo, pointer) for pointer in pointers]
    assert values == [record.value for record in records]
    return records


def _frame_record(repo, pointer) -> LogRecord:
    """``pointer``'s frame, read as the repository reads it (again
    verified if it fails its check), decoded by ``LogRecord.decode``."""
    reader = repo._reader(pointer.file_no).dfs_reader
    scope = repo.segment_scope(pointer.file_no)
    try:
        return LogRecord.decode(reader.read(pointer.offset, pointer.size), 0, scope)[0]
    except CorruptLogRecord:
        raw = reader.read(pointer.offset, pointer.size, verified=True)
        return LogRecord.decode(raw, 0, scope)[0]
