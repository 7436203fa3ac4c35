"""Shared helpers for the WAL compaction tests."""

from repro.wal.compaction import CompactionResult, IncrementalCompactionJob
from repro.wal.planner import CompactionPlan


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
