"""Log segments: append-only DFS files holding framed log records.

The log is "an infinite sequential repository which contains contiguous
segments.  Each segment is implemented as a sequential file in HDFS whose
size is also configurable" (§3.4, default 64 MB as in HBase).
"""

from __future__ import annotations

from typing import Iterator

from repro.dfs.filesystem import DFS, DFSReader, DFSWriter
from repro.errors import CorruptLogRecord, TruncatedLogRecord
from repro.sim.machine import Machine
from repro.sim.metrics import SCAN_PREFETCH_WINDOWS
from repro.wal.record import LogPointer, LogRecord


class LogSegmentWriter:
    """Appends framed records to one segment file."""

    def __init__(self, file_no: int, writer: DFSWriter) -> None:
        self.file_no = file_no
        self._writer = writer

    @property
    def size(self) -> int:
        """Bytes written to the segment so far."""
        return self._writer.length

    @property
    def path(self) -> str:
        """DFS path of the segment file."""
        return self._writer.path

    def append(self, encoded: bytes) -> LogPointer:
        """Durably append one already-encoded record; returns its pointer."""
        offset = self._writer.append(encoded)
        return LogPointer(self.file_no, offset, len(encoded))

    def append_many(self, encoded_records: list[bytes]) -> list[LogPointer]:
        """Durably append a batch with a single DFS append (group commit).

        A batch pays one replication round trip instead of one per record,
        which is the §3.7.2 batching optimization.
        """
        base = self._writer.append(b"".join(encoded_records))
        pointers = []
        offset = base
        for encoded in encoded_records:
            pointers.append(LogPointer(self.file_no, offset, len(encoded)))
            offset += len(encoded)
        return pointers

    def close(self) -> None:
        """Finalize the segment file."""
        self._writer.close()


class LogSegmentReader:
    """Sequential reads over one segment file; a random read is one
    ``dfs_reader.read``, which the repository decodes itself.

    Args:
        file_no: segment number (stamped into yielded pointers).
        reader: positional DFS reader over the segment file.
        checked: the file system's memo of frames whose CRC passed
            (``DFS.checked_frames``), handed to every decode.
        prefetch_bytes: read-ahead window for :meth:`scan`; 0 reads the
            whole segment in one request (the seed behaviour), a positive
            value streams the scan in windows of this many bytes so long
            segments pay sequential-bandwidth cost with bounded buffering.
    """

    def __init__(
        self,
        file_no: int,
        reader: DFSReader,
        checked: dict[int, int],
        prefetch_bytes: int = 0,
    ) -> None:
        self.file_no = file_no
        self.dfs_reader = reader
        self.checked = checked
        self._prefetch_bytes = prefetch_bytes

    @property
    def length(self) -> int:
        """Current segment length in bytes."""
        return self.dfs_reader.length

    def refresh(self) -> None:
        """Re-fetch the segment file's metadata (:meth:`DFSReader.refresh`)."""
        self.dfs_reader.refresh()

    def scan(
        self, *, start: int = 0, scope: tuple[str, str] | None = None
    ) -> Iterator[tuple[LogPointer, LogRecord]]:
        """Sequentially decode every record in the segment from ``start``.

        With a prefetch window configured, the segment is read in
        consecutive windows (sequential on the disk model: only the first
        window pays a seek per block) and records straddling a window
        boundary are carried over.  A frame that fails its check is read
        again verified; failing again, it raises ``CorruptLogRecord`` —
        unless the file ends inside it: a torn final record (crash
        mid-append) terminates the scan cleanly, matching recovery
        semantics: bytes after the last complete frame are ignored.

        ``start`` must be a record boundary (a pointer's ``offset + size``
        from a previous scan); a log tailer resumes mid-segment with it and
        pays only for the bytes past its cursor.  ``scope`` is the
        ``(table, group)`` of a sorted segment, which its slim entries leave
        out; see :meth:`LogRecord.decode`.
        """
        length = self.dfs_reader.length
        window = self._prefetch_bytes if self._prefetch_bytes > 0 else length - start
        counting = self._prefetch_bytes > 0
        buf = b""
        base = start  # file offset of buf[0]
        fetched = start  # file offset up to which the segment has been read
        offset = start  # file offset of the next record
        verified = False  # whether buf came from a verified read
        while offset < length:
            try:
                record, rel_next = LogRecord.decode(buf, offset - base, scope, self.checked)
            except CorruptLogRecord as exc:
                cut = isinstance(exc, TruncatedLogRecord)
                if cut and fetched < length:
                    take = min(window, length - fetched)
                    buf = buf[offset - base :] + self.dfs_reader.read(fetched, take)
                    base, verified = offset, False
                    fetched += take
                    if counting:
                        self.dfs_reader.machine.counters.add(SCAN_PREFETCH_WINDOWS)
                    continue
                if verified:
                    if cut:
                        return  # torn final record
                    raise
                buf = self.dfs_reader.read(offset, fetched - offset, verified=True)
                base, verified = offset, True
                continue
            next_offset = base + rel_next
            yield LogPointer(self.file_no, offset, next_offset - offset), record
            offset = next_offset


def open_segment_reader(
    dfs: DFS, path: str, file_no: int, machine: Machine, prefetch_bytes: int = 0
) -> LogSegmentReader:
    """Open ``path`` as a segment reader on behalf of ``machine``."""
    return LogSegmentReader(
        file_no, dfs.open(path, machine), dfs.checked_frames, prefetch_bytes
    )
