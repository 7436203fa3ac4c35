"""The per-server log repository (§3.4).

Each tablet server uses a *single log instance* for all tablets it
maintains (the paper's design choice 1): one sequence of segment files in
the DFS.  The repository assigns LSNs, rolls segments at the configured
size, serves random reads by :class:`LogPointer`, and atomically installs
the sorted segments produced by compaction.

Sorted segments use the slim record layout (table/tablet/group omitted per
entry); the repository keeps a metadata map ``file_no -> (table, group)``
persisted in the DFS so reads can reconstitute full records — the §3.6.5
storage optimization.

A compaction plan installs in four steps: write the run
(``sorted-N.log``), write its index beside it (``index-N.log.idx``,
:func:`repro.index.persist.encode_run_index`), swap ``segments.meta`` once
so that it names the run, then delete the plan's inputs and the index
files of the runs among them.  The swap is the commit point for both
files — nobody admits a run, or opens its index, before the map names it
— and it comes before the deletes so that a crash anywhere leaves every
record in a file some map still reaches: at worst the inputs and the
named run are both live, which redo and the next merge's
(key, timestamp) dedupe absorb.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import partial
from typing import Iterator

from repro.dfs.filesystem import DFS
from repro.errors import CorruptLogRecord, InvalidLogPointer
from repro.obs.trace import span
from repro.sim.deadline import check_deadline
from repro.sim.failure import (
    CP_LOG_APPEND,
    CP_LOG_RETIRE,
    CP_META_PERSIST,
    crash_point,
)
from repro.sim.machine import Machine
from repro.sim.metrics import (
    LOG_INGEST_BYTES,
    READ_MANY_CALLS,
    READ_MANY_RECORDS,
    READ_MANY_SPANS,
    SPAN_LOG_APPEND,
    SPAN_LOG_READ,
    SPAN_LOG_READ_MANY,
)
from repro.wal.record import LogPointer, LogRecord
from repro.wal.segment import LogSegmentReader, LogSegmentWriter, open_segment_reader

DEFAULT_SEGMENT_SIZE = 64 * 1024 * 1024
# Sorted run ``sorted-N.log`` has its index at ``index-N.log`` plus this.
# The name must not parse as ``…-<digits>.<ext>``, which is how ``reattach``
# and ``refresh_from_dfs`` recognise a segment in a directory listing, and
# only a run's own file carries the ``sorted-`` prefix.
RUN_INDEX_SUFFIX = ".idx"


class LogRepository:
    """Segmented, append-only log for one tablet server.

    Args:
        dfs: the shared file system the segments live in.
        machine: the machine whose clock pays for log I/O.
        root: DFS directory prefix for this repository's files.
        segment_size: roll threshold in bytes.
        coalesce_gap: ``None`` disables batch-read coalescing —
            :meth:`read_many` then issues one DFS read per pointer in
            input order, the seed cost model.  A value ``>= 0`` makes
            :meth:`read_many` sort pointers per segment and merge reads
            whose gap is at most this many bytes into a single span read.
        scan_prefetch: read-ahead window (bytes) for sequential segment
            scans; 0 reads each segment in one request.
    """

    def __init__(
        self,
        dfs: DFS,
        machine: Machine,
        root: str,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        coalesce_gap: int | None = None,
        scan_prefetch: int = 0,
    ) -> None:
        self._dfs = dfs
        self._machine = machine
        self._root = root.rstrip("/")
        self._segment_size = segment_size
        self._coalesce_gap = coalesce_gap
        self._scan_prefetch = scan_prefetch
        self._next_file_no = 1
        self._next_lsn = 1
        self._paths: dict[int, str] = {}
        # file_no -> (table, group) for slim (sorted) segments
        self._slim_meta: dict[int, tuple[str, str]] = {}
        # file_no -> (cold DFS handle, cold path) for archived segments
        self._archived: dict[int, tuple[DFS, str]] = {}
        self._current: LogSegmentWriter | None = None
        self._readers: dict[int, LogSegmentReader] = {}

    # -- properties -------------------------------------------------------------

    @property
    def root(self) -> str:
        """DFS directory prefix of this repository."""
        return self._root

    @property
    def next_lsn(self) -> int:
        """LSN that the next append will receive."""
        return self._next_lsn

    @property
    def machine(self) -> Machine:
        """The machine whose clock pays for log I/O."""
        return self._machine

    def set_next_lsn(self, lsn: int) -> None:
        """Fast-forward the LSN counter (recovery restores it from the log)."""
        self._next_lsn = max(self._next_lsn, lsn)

    # -- segment management -------------------------------------------------------

    def _segment_path(self, file_no: int, *, sorted_segment: bool = False) -> str:
        kind = "sorted" if sorted_segment else "segment"
        return f"{self._root}/{kind}-{file_no:08d}.log"

    def _roll_if_needed(self, incoming: int) -> LogSegmentWriter:
        if self._current is not None and self._current.size + incoming <= self._segment_size:
            return self._current
        if self._current is not None:
            self._current.close()
        file_no = self._next_file_no
        self._next_file_no += 1
        path = self._segment_path(file_no)
        writer = self._dfs.create(path, self._machine)
        self._current = LogSegmentWriter(file_no, writer)
        self._paths[file_no] = path
        return self._current

    def segments(self) -> list[int]:
        """All live segment file numbers in order."""
        return sorted(self._paths)

    def has_segment(self, file_no: int) -> bool:
        """Whether this handle lists segment ``file_no``."""
        return file_no in self._paths

    def segment_path(self, file_no: int) -> str:
        """DFS path of segment ``file_no``."""
        return self._paths[file_no]

    def segment_bytes(self, file_no: int) -> int:
        """On-DFS size of one live segment (a namenode metadata lookup;
        the compaction planner sizes its tiers with this)."""
        archived = self._archived.get(file_no)
        if archived is not None:
            cold_dfs, cold_path = archived
            return cold_dfs.file_length(cold_path)
        return self._dfs.file_length(self._paths[file_no])

    def is_sorted_segment(self, file_no: int) -> bool:
        """Whether ``file_no`` is a compaction-produced sorted segment."""
        return file_no in self._slim_meta

    def segment_scope(self, file_no: int) -> tuple[str, str] | None:
        """(table, group) a sorted segment holds, or None for unsorted
        segments (which may hold anything).  This is the §3.6.5 metadata
        map that lets group scans skip unrelated segments entirely."""
        return self._slim_meta.get(file_no)

    # -- archival tier (LHAM-inspired; see repro.wal.archive) ---------------

    def is_archived(self, file_no: int) -> bool:
        """Whether ``file_no`` lives on the cold tier."""
        return file_no in self._archived

    def read_segment_bytes(self, file_no: int) -> bytes:
        """The raw bytes of one segment (used when copying to cold
        storage)."""
        path = self._paths[file_no]
        return self._dfs.open(path, self._machine).read_all(verified=True)

    def mark_archived(self, file_no: int, cold_dfs: "DFS", cold_path: str) -> None:
        """Record that ``file_no`` now lives at ``cold_path`` on the cold
        tier and delete the hot copy; reads fall through transparently."""
        hot_path = self._paths[file_no]
        self._archived[file_no] = (cold_dfs, cold_path)
        self._readers.pop(file_no, None)
        self._dfs.delete(hot_path)

    def total_bytes(self) -> int:
        """Total size of all live segments on the HOT tier (archived
        segments no longer count against hot storage)."""
        return sum(
            self._dfs.file_length(path)
            for file_no, path in self._paths.items()
            if file_no not in self._archived
        )

    # -- appends -------------------------------------------------------------------

    def append(self, record: LogRecord) -> tuple[LogPointer, LogRecord]:
        """Assign an LSN, durably append, and return (pointer, stamped record).

        A one-record batch: the segment-roll/oversize-split logic lives
        only in :meth:`append_batch`, and a single record pays exactly the
        same cost either way (same crash point, one DFS append).
        """
        [(pointer, stamped)] = self.append_batch([record])
        return pointer, stamped

    def append_batch(self, records: list[LogRecord]) -> list[tuple[LogPointer, LogRecord]]:
        """Group-commit append: one DFS round trip per segment touched.

        A batch that fits the active segment (or any batch no larger than
        ``segment_size``) lands with a single ``append_many``.  A batch
        bigger than one segment is split across rolls instead of blowing
        a single segment arbitrarily past the roll threshold; each
        resulting segment still receives its records in one DFS write.
        """
        if not records:
            return []
        crash_point(CP_LOG_APPEND, machine=self._machine.name, root=self._root)
        stamped = []
        encoded = []
        total = 0
        for record in records:
            rec = record.with_lsn(self._next_lsn)
            self._next_lsn += 1
            stamped.append(rec)
            frame = rec.encode()
            encoded.append(frame)
            total += len(frame)
        self._machine.counters.add(LOG_INGEST_BYTES, total)
        with span(SPAN_LOG_APPEND, self._machine, bytes=total, records=len(records)):
            writer = self._roll_if_needed(total)
            pointers: list[LogPointer] = []
            start = 0
            while start < len(encoded):
                # Greedy chunk: everything that fits the segment's remaining
                # capacity; a single record larger than a whole segment goes
                # alone.
                end = start + 1
                size = len(encoded[start])
                while (
                    end < len(encoded)
                    and writer.size + size + len(encoded[end]) <= self._segment_size
                ):
                    size += len(encoded[end])
                    end += 1
                pointers.extend(writer.append_many(encoded[start:end]))
                self._refresh_reader(writer.file_no)
                start = end
                if start < len(encoded):
                    writer = self._roll_if_needed(len(encoded[start]))
        return list(zip(pointers, stamped))

    def _refresh_reader(self, file_no: int) -> None:
        # An append extends the file the cached reader sees; refreshing
        # its length metadata (instead of discarding the reader, as this
        # used to) keeps the active segment's reader — and the block-cache
        # state behind it — warm across appends.
        reader = self._readers.get(file_no)
        if reader is not None:
            reader.refresh()

    # -- reads ----------------------------------------------------------------------

    def _reader(self, file_no: int) -> LogSegmentReader:
        reader = self._readers.get(file_no)
        if reader is None:
            archived = self._archived.get(file_no)
            if archived is not None:
                cold_dfs, cold_path = archived
                reader = open_segment_reader(
                    cold_dfs, cold_path, file_no, self._machine, self._scan_prefetch
                )
            else:
                path = self._paths.get(file_no)
                if path is None:
                    raise InvalidLogPointer(f"segment {file_no} does not exist")
                reader = open_segment_reader(
                    self._dfs, path, file_no, self._machine, self._scan_prefetch
                )
            self._readers[file_no] = reader
        return reader

    def read(self, pointer: LogPointer) -> LogRecord:
        """Random read of one record (a single disk seek, §3.5); a frame
        that fails its check is read again verified."""
        check_deadline("log read")
        file_no = pointer.file_no
        with span(SPAN_LOG_READ, self._machine, bytes=pointer.size):
            reader = self._reader(file_no).dfs_reader
            scope = self._slim_meta.get(file_no)
            try:
                return LogRecord.decode(reader.read(pointer.offset, pointer.size), 0, scope)[0]
            except CorruptLogRecord:
                raw = reader.read(pointer.offset, pointer.size, verified=True)
                return LogRecord.decode(raw, 0, scope)[0]

    def read_many(self, pointers: list[LogPointer]) -> list[LogRecord]:
        """Batch random reads; returns records in input pointer order.

        With coalescing enabled (``coalesce_gap`` is not None), pointers
        are grouped by segment, sorted by offset, and runs whose
        inter-record gap is at most the configured threshold are fetched
        with a single DFS span read — one seek amortized over the run
        instead of one per record.  After compaction clusters a range's
        records, a Fig. 10-style scan collapses to a handful of spans.

        With coalescing disabled this degenerates to per-pointer
        :meth:`read` calls in input order (identical cost accounting to
        the seed read path).
        """
        if not pointers:
            return []
        check_deadline("log batch read")
        if self._coalesce_gap is None:
            return [self.read(pointer) for pointer in pointers]
        counters = self._machine.counters
        counters.add(READ_MANY_CALLS)
        counters.add(READ_MANY_RECORDS, len(pointers))
        with span(SPAN_LOG_READ_MANY, self._machine, records=len(pointers)):
            results: list[LogRecord | None] = [None] * len(pointers)
            by_segment: dict[int, list[int]] = defaultdict(list)
            for position, pointer in enumerate(pointers):
                by_segment[pointer.file_no].append(position)
            for file_no, positions in by_segment.items():
                reader = self._reader(file_no)
                positions.sort(key=lambda i: pointers[i].offset)
                run: list[int] = []
                run_start = run_end = 0
                for position in positions:
                    pointer = pointers[position]
                    if run and pointer.offset <= run_end + self._coalesce_gap:
                        run.append(position)
                        run_end = max(run_end, pointer.offset + pointer.size)
                    else:
                        if run:
                            self._read_span(reader, file_no, run, run_start, run_end,
                                            pointers, results)
                        run = [position]
                        run_start = pointer.offset
                        run_end = pointer.offset + pointer.size
                if run:
                    self._read_span(reader, file_no, run, run_start, run_end,
                                    pointers, results)
        return results  # type: ignore[return-value]

    def _read_span(
        self,
        reader: LogSegmentReader,
        file_no: int,
        run: list[int],
        start: int,
        end: int,
        pointers: list[LogPointer],
        results: list[LogRecord | None],
    ) -> None:
        """Fetch one coalesced span and decode each run member out of it
        (re-reading the span verified if one fails its check)."""
        self._machine.counters.add(READ_MANY_SPANS)
        raw = reader.dfs_reader.read(start, end - start)
        scope = self._slim_meta.get(file_no)
        for position in run:
            offset = pointers[position].offset - start
            try:
                results[position], _ = LogRecord.decode(raw, offset, scope)
            except CorruptLogRecord:
                raw = reader.dfs_reader.read(start, end - start, verified=True)
                results[position], _ = LogRecord.decode(raw, offset, scope)

    def scan_segment(
        self, file_no: int, *, start_offset: int = 0
    ) -> Iterator[tuple[LogPointer, LogRecord]]:
        """Sequential scan of one segment, optionally from a byte offset.

        ``start_offset`` must be a record boundary (``offset + size`` of a
        previously scanned pointer); a follower's log tailer resumes from
        its cursor with it, reading only the segment's unseen suffix.
        """
        scope = self._slim_meta.get(file_no)
        for entry in self._reader(file_no).scan(start=start_offset, scope=scope):
            check_deadline("log segment scan")
            yield entry

    def scan_all(
        self, *, start: LogPointer | None = None
    ) -> Iterator[tuple[LogPointer, LogRecord]]:
        """Scan every segment in file order, optionally from ``start``.

        Recovery uses ``start`` to resume from the last checkpoint position
        instead of scanning the whole log (§3.8).
        """
        for file_no in self.segments():
            if start is not None and file_no < start.file_no:
                continue
            for pointer, record in self.scan_segment(file_no):
                if start is not None and file_no == start.file_no and pointer.offset < start.offset:
                    continue
                yield pointer, record

    def end_pointer(self) -> LogPointer:
        """Pointer just past the last appended byte (checkpoint position)."""
        if self._current is None:
            if not self._paths:
                return LogPointer(0, 0, 0)
            # After a roll, the resume point is the start of the segment
            # that the next append will create.
            return LogPointer(self._next_file_no, 0, 0)
        return LogPointer(self._current.file_no, self._current.size, 0)

    def roll(self) -> None:
        """Close the active segment so the next append opens a fresh one.

        The tablet server rolls before compaction so the job's input set is
        frozen while new writes land in segments outside it (§3.6.5).
        """
        if self._current is not None:
            self._current.close()
            self._current = None

    # -- compaction support --------------------------------------------------------

    def create_sorted_segment(self, table: str, group: str) -> LogSegmentWriter:
        """Open a writer for a new sorted segment holding one (table, group)."""
        file_no = self._next_file_no
        self._next_file_no += 1
        path = self._segment_path(file_no, sorted_segment=True)
        writer = self._dfs.create(path, self._machine)
        segment = LogSegmentWriter(file_no, writer)
        self._paths[file_no] = path
        self._slim_meta[file_no] = (table, group)
        return segment

    def run_index_path(self, file_no: int) -> str:
        """DFS path of sorted run ``file_no``'s index file."""
        return f"{self._root}/index-{file_no:08d}.log{RUN_INDEX_SUFFIX}"

    def write_run_index(self, file_no: int, payload: bytes) -> None:
        """Store a finished run's encoded index beside it.  Written in
        place: nobody opens it before the map names the run."""
        writer = self._dfs.create(self.run_index_path(file_no), self._machine)
        writer.append(payload)
        writer.close()

    def read_run_index(self, file_no: int, *, verified: bool = False) -> bytes:
        """The encoded index of a run the metadata map names."""
        path = self.run_index_path(file_no)
        return self._dfs.open(path, self._machine).read_all(verified=verified)

    def retire_segments(self, file_nos: list[int]) -> None:
        """Commit what replaces ``file_nos`` and discard them (§3.6.5:
        "the old log segments ... can be safely discarded").

        One ``segments.meta`` swap names the runs created since the last
        one and forgets the retired ones; only then are the files deleted,
        a run's index ahead of the run so that no index ever outlives it.
        """
        retired = set(file_nos)
        slim_meta = {
            no: meta for no, meta in self._slim_meta.items() if no not in retired
        }
        self._persist_meta(slim_meta)
        self._slim_meta = slim_meta
        crash_point(CP_LOG_RETIRE, machine=self._machine.name, root=self._root)
        for file_no in file_nos:
            if self._current is not None and self._current.file_no == file_no:
                # The active segment was compacted away; the next append
                # starts a fresh one.
                self._current = None
            path = self._paths.pop(file_no, None)
            self._readers.pop(file_no, None)
            index_path = self.run_index_path(file_no)
            if self._dfs.exists(index_path):
                self._dfs.delete(index_path)
            archived = self._archived.pop(file_no, None)
            if archived is not None:
                cold_dfs, cold_path = archived
                if cold_dfs.exists(cold_path):
                    cold_dfs.delete(cold_path)
            elif path is not None:
                self._dfs.delete(path)

    def _meta_path(self) -> str:
        return f"{self._root}/segments.meta"

    def _meta_tmp_path(self) -> str:
        # Where ``DFS.install`` stages the map; only the two readers use it.
        return self._meta_path() + ".tmp"

    def _persist_meta(self, slim_meta: dict[int, tuple[str, str]]) -> None:
        """Persist a slim-segment metadata map through ``DFS.install``:
        a crash at any point leaves either the old map or the complete
        new one on the DFS — never a window with neither (``reattach``
        prefers a complete temp file, which is always the newer state
        when one exists).
        """
        payload = json.dumps(
            {str(no): list(meta) for no, meta in slim_meta.items()}
        ).encode()
        self._dfs.install(
            self._meta_path(),
            payload,
            self._machine,
            before_swap=partial(
                crash_point, CP_META_PERSIST, machine=self._machine.name, root=self._root
            ),
        )

    # -- recovery support -------------------------------------------------------------

    @classmethod
    def reattach(
        cls,
        dfs: DFS,
        machine: Machine,
        root: str,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        coalesce_gap: int | None = None,
        scan_prefetch: int = 0,
    ) -> "LogRepository":
        """Rebuild a repository handle over segments already in the DFS.

        Used when a restarted or replacement server takes over a failed
        server's log (§3.8).  The LSN counter is restored lazily by the
        recovery scan.
        """
        repo = cls(dfs, machine, root, segment_size, coalesce_gap, scan_prefetch)
        # A complete temp file is always the newest state: the swap in
        # ``_persist_meta`` only deletes the old map after the temp is
        # fully written.  An unparseable temp is a crash mid-write — fall
        # back to the old map it never replaced.
        repo._load_meta((repo._meta_tmp_path(), repo._meta_path()))
        for file_no, path in repo._list_segments().items():
            repo._paths[file_no] = path
            repo._next_file_no = max(repo._next_file_no, file_no + 1)
        return repo

    def _list_segments(self) -> dict[int, str]:
        """``file_no -> path`` of every segment file in the directory."""
        listed: dict[int, str] = {}
        for path in self._dfs.list_files(self._root + "/"):
            name = path.rsplit("/", 1)[-1]
            if name.startswith("segments.meta"):
                continue
            stem = name.rsplit(".", 1)[0]
            try:
                file_no = int(stem.split("-")[-1])
            except ValueError:
                # Not a segment file — e.g. a split writer's leftover
                # ``segment-*.log.tmp`` from a crash mid-persist, or a
                # fence token.  Skip rather than refuse to reattach.
                continue
            listed[file_no] = path
        return listed

    def _load_meta(self, meta_paths: tuple[str, str]) -> None:
        """Load the slim-segment map from the first of ``meta_paths`` that
        exists and parses (an unparseable one is a crash mid-write)."""
        for meta_path in meta_paths:
            if not self._dfs.exists(meta_path):
                continue
            raw = self._dfs.open(meta_path, self._machine).read_all(verified=True)
            try:
                parsed = json.loads(raw.decode())
            except ValueError:
                continue
            self._slim_meta = {
                int(no): (meta[0], meta[1]) for no, meta in parsed.items()
            }
            return

    def refresh_from_dfs(self) -> None:
        """Re-sync this handle with the segment files currently in the DFS.

        A follower's tailer holds a read-only ``reattach``-ed handle over
        the owner's log directory while the owner keeps rolling, compacting,
        and retiring segments underneath it.  Each tail pass calls this
        first so the handle (a) picks up newly rolled segments, (b) drops
        segments the owner retired (their readers would otherwise serve
        reads of deleted files), (c) reloads the slim-segment metadata map
        while a sorted segment in the directory is missing from it and
        admits a sorted segment only once the map names it, and (d) refreshes
        cached readers so they observe appends past their opened length.
        Cost: one namenode listing plus a small metadata read while an
        unmapped sorted segment is listed — no data I/O.
        """
        listed = self._list_segments()
        sorted_listed = {
            no
            for no, path in listed.items()
            if path.rsplit("/", 1)[-1].startswith("sorted-")
        }
        if not sorted_listed <= self._slim_meta.keys():
            # Prefer the committed map: unlike ``reattach`` (crash
            # recovery, where a complete temp is always the newest
            # state), a live refresh can observe a temp file orphaned by
            # an owner crash long since superseded — parseable but
            # stale.  Fall back to the temp only when the committed map
            # is absent (crash between delete and rename) or torn.
            self._load_meta((self._meta_path(), self._meta_tmp_path()))
        # A run the map still does not name is not installed: the owner is
        # writing it (compaction appends a run a chunk at a time) or died
        # before installing it.  Its slim records have no scope to decode
        # under and everything in it is readable through the plan's
        # inputs, so it stays out of the handle until the map names it.
        for file_no in sorted_listed - self._slim_meta.keys():
            del listed[file_no]
        for file_no in list(self._paths):
            if file_no in listed or file_no in self._archived:
                continue
            self._paths.pop(file_no, None)
            self._readers.pop(file_no, None)
            self._slim_meta.pop(file_no, None)
        for file_no, path in listed.items():
            if file_no not in self._paths:
                self._paths[file_no] = path
                self._next_file_no = max(self._next_file_no, file_no + 1)
        for reader in self._readers.values():
            reader.refresh()
