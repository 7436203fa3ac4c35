"""The log repository: LogBase's unique data store (§3.4).

All writes are appended to a single per-server log made of sequential
segments stored in the DFS.  Log records carry ``<LogKey, Data>`` where
LogKey is (LSN, table, tablet) and Data is (row key, column group, write
timestamp, value); a null value marks an invalidated (deleted) entry.
Compaction (§3.6.5) rewrites the log into segments sorted by
(table, column group, key, timestamp) with obsolete versions removed; it
also writes each run's index, so :mod:`repro.wal.compaction` sits above
:mod:`repro.index` (which builds on :mod:`repro.wal.record`) and is
imported by name, not re-exported from here.
"""

from repro.wal.record import LogRecord, LogPointer, RecordType
from repro.wal.segment import LogSegmentWriter, LogSegmentReader
from repro.wal.repository import LogRepository
from repro.wal.planner import CompactionPlan, CompactionPlanner
from repro.wal.archive import ArchiveReport, ColdStorage, LogArchiver

__all__ = [
    "LogRecord",
    "LogPointer",
    "RecordType",
    "LogSegmentWriter",
    "LogSegmentReader",
    "LogRepository",
    "CompactionPlan",
    "CompactionPlanner",
    "ArchiveReport",
    "ColdStorage",
    "LogArchiver",
]
