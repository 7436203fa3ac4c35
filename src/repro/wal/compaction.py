"""Log compaction (§3.6.5): the MapReduce-like vacuum/sort job.

The job takes the current log segments as input, removes obsolete
versions, invalidated records and uncommitted updates, sorts the remaining
data by (table name, column group, record id, timestamp) — the paper's
priority order — and writes one run of *sorted* segments per
(table, column group) so related records are clustered for range scans.

Structure mirrors the paper's MapReduce framing:

* **map** — scan each input segment, classifying entries and collecting
  the set of committed transactions;
* **shuffle** — group surviving versions by (table, group);
* **reduce** — per group, drop deleted/obsolete versions, sort by
  (key, timestamp), and emit slim records into a new sorted segment.

The caller (tablet server) keeps serving reads and writes from the old
segments while the job runs and re-points its indexes afterwards.

:class:`IncrementalCompactionJob` executes one planner-produced
:class:`~repro.wal.planner.CompactionPlan`: tail plans run the
map/shuffle/reduce over the unsorted tail (new updates land in the
freshly rolled segment and "are left for the next round"), while merge
plans stream a k-way heap merge over already-sorted runs of one
(table, group), so memory is bounded by one key's versions instead of
the whole log.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator

from repro.dfs.datanode import CHECKSUM_CHUNK
from repro.index.interface import Row
from repro.index.persist import encode_index_file
from repro.sim.failure import CP_COMPACTION_MID, crash_point
from repro.sim.metrics import (
    COMPACTION_BYTES_READ,
    COMPACTION_BYTES_WRITTEN,
    COMPACTION_PLANS,
    COMPACTION_TOMBSTONES_CARRIED,
)
from repro.wal.planner import CompactionPlan
from repro.wal.record import LogRecord, RecordType
from repro.wal.replay import as_committed
from repro.wal.repository import LogRepository
from repro.wal.segment import LogSegmentWriter


@dataclass
class CompactionStats:
    """What the job dropped and kept (reported by benchmarks/tests)."""

    input_records: int = 0
    kept_versions: int = 0
    dropped_obsolete: int = 0
    dropped_deleted: int = 0
    dropped_uncommitted: int = 0
    dropped_unowned: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    tombstones_carried: int = 0

    def merge(self, other: "CompactionStats") -> None:
        """Accumulate another run's accounting into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class CompactionResult:
    """Output of one compaction run.

    Attributes:
        new_segments: file numbers of the sorted segments written.
        index_entries: per (table, group) scope the run rewrote, its
            surviving versions as rows in file order — the list the run's
            index was written from, which the tablet server re-points its
            indexes with.  A scope whose versions all died maps to ``[]``;
            scopes not listed keep their indexes untouched.
        retired_segments: input file numbers now safe to discard.
        stats: drop/keep accounting.
    """

    new_segments: list[int] = field(default_factory=list)
    index_entries: dict[tuple[str, str], list[Row]] = field(default_factory=dict)
    retired_segments: list[int] = field(default_factory=list)
    stats: CompactionStats = field(default_factory=CompactionStats)

    def merge(self, other: "CompactionResult") -> None:
        """Fold another plan's result in (plans have disjoint inputs)."""
        self.new_segments.extend(other.new_segments)
        for scope, entries in other.index_entries.items():
            self.index_entries.setdefault(scope, []).extend(entries)
        self.retired_segments.extend(other.retired_segments)
        self.stats.merge(other.stats)


def _trim_versions(
    live: list[LogRecord],
    stats: CompactionStats,
    max_versions: int | None,
    retain_after: int | None,
) -> list[LogRecord]:
    """Apply the retention policies to one key's surviving versions.

    ``retain_after`` expires history older than the cutoff but always
    keeps the key's newest version; ``max_versions`` caps the count.
    """
    if retain_after is not None and live:
        retained = [r for r in live[:-1] if r.timestamp >= retain_after] + [live[-1]]
        stats.dropped_obsolete += len(live) - len(retained)
        live = retained
    if max_versions is not None and len(live) > max_versions:
        stats.dropped_obsolete += len(live) - max_versions
        live = live[-max_versions:]
    return live


class IncrementalCompactionJob:
    """Execute one :class:`~repro.wal.planner.CompactionPlan`.

    Deletions need care: INVALIDATE markers may be dropped only when a
    plan's output provably covers everything the log holds for their
    scope, and a plan's usually does not.  Each plan therefore re-emits a slim tombstone at a key's delete high-water mark
    whenever any live segment *outside* the plan could still hold that
    (table, group)'s versions — otherwise a later redo scan over the
    retained runs would resurrect deleted data.  Tombstones are emitted
    before the key's surviving versions (their timestamp is lower), so
    scan order within and across runs keeps redo correct.

    A budget-capped tail plan can also split a transaction from its
    commit marker (writes inside the plan, COMMIT past the cut).  Such
    writes must not be classified uncommitted: segments holding writes of
    a transaction with no COMMIT/ABORT inside the plan are deferred to a
    later round whenever the plan does not cover the whole tail.
    """

    def __init__(
        self,
        repository: LogRepository,
        plan: CompactionPlan,
        max_versions: int | None = None,
        owned=None,
        retain_after: int | None = None,
    ) -> None:
        if max_versions is not None and max_versions < 1:
            raise ValueError("max_versions must be >= 1 or None")
        if plan.kind not in ("tail", "merge"):
            raise ValueError(f"unknown plan kind {plan.kind!r}")
        if plan.kind == "merge" and plan.scope is None:
            raise ValueError("merge plans need a scope")
        self._repo = repository
        self._plan = plan
        self._max_versions = max_versions
        self._owned = owned
        self._retain_after = retain_after

    def run(self) -> CompactionResult:
        """Execute the plan and install its output in the repository."""
        if self._plan.kind == "merge":
            result = self._run_merge()
        else:
            result = self._run_tail()
        counters = self._repo.machine.counters
        counters.add(COMPACTION_PLANS)
        counters.add(COMPACTION_BYTES_READ, result.stats.bytes_read)
        counters.add(COMPACTION_BYTES_WRITTEN, result.stats.bytes_written)
        counters.add(COMPACTION_TOMBSTONES_CARRIED, result.stats.tombstones_carried)
        # Each plan installs independently; a crash here leaves this
        # plan's new runs and their indexes written but unreferenced while
        # every record stays readable through the plan's inputs.  Earlier
        # plans in the same round are already fully installed.
        crash_point(CP_COMPACTION_MID, machine=self._repo.machine.name)
        self._repo.retire_segments(result.retired_segments)
        return result

    # -- shared helpers -----------------------------------------------------

    def _scope_covered(self, scope: tuple[str, str], input_set: set[int]) -> bool:
        """Whether no live segment outside the plan can hold ``scope``'s
        versions — only then may the scope's delete markers be dropped."""
        for file_no in self._repo.segments():
            if file_no in input_set:
                continue
            other = self._repo.segment_scope(file_no)
            if other is None or other == scope:
                return False
        return True

    def _write_run(
        self,
        table: str,
        group: str,
        carry: bool,
        keyed: Iterable[tuple[bytes, int, int, list[LogRecord]]],
        result: CompactionResult,
    ) -> None:
        """Write one sorted run of (table, group), a chunk per DFS append.

        ``keyed`` yields ``(key, cutoff, cutoff_lsn, live)`` in key order;
        with ``carry`` a key with a delete high-water mark (``cutoff >= 0``)
        gets a slim tombstone ahead of its versions, listed in the run's
        index, never in the owner's.  Frames queue until they fill a DFS
        checksum chunk and go out in one ``append_many`` — one replication
        round trip and chunk-CRC pass per ``CHECKSUM_CHUNK`` (§3.7.2's
        batching applied to §3.6.5's output).  Flushes fall on frame
        boundaries, so a crash between two never leaves a torn frame.  The
        pointers fill one row list per kind: the run's index is written from
        both, and the versions' list is the scope's ``index_entries``.  An
        empty run creates no segment.
        """
        stats = result.stats
        segment: LogSegmentWriter | None = None
        versions: list[Row] = []
        tombstones: list[Row] = []
        result.index_entries[(table, group)] = versions
        pending: list[tuple[bytes, bytes, int, list[Row]]] = []
        pending_bytes = 0

        def flush() -> None:
            pointers = segment.append_many([frame for frame, _, _, _ in pending])
            for pointer, (_, key, timestamp, rows) in zip(pointers, pending):
                rows.append((key, timestamp, pointer))
            stats.bytes_written += pending_bytes
            pending.clear()

        vouched = self._repo.vouched
        for key, cutoff, cutoff_lsn, live in keyed:
            frames = [
                (as_committed(r).encode(slim=True, checked=vouched), r.timestamp, versions)
                for r in live
            ]
            stats.kept_versions += len(live)
            if carry and cutoff >= 0:
                marker = LogRecord(
                    RecordType.INVALIDATE, lsn=cutoff_lsn, table=table, key=key,
                    group=group, timestamp=cutoff,
                )
                frames.insert(0, (marker.encode(slim=True, checked=vouched), cutoff, tombstones))
                stats.tombstones_carried += 1
            for frame, timestamp, rows in frames:
                if segment is None:
                    segment = self._repo.create_sorted_segment(table, group)
                pending.append((frame, key, timestamp, rows))
                pending_bytes += len(frame)
                if pending_bytes >= CHECKSUM_CHUNK:
                    flush()
                    pending_bytes = 0
        if segment is None:
            return
        if pending:
            flush()
        segment.close()
        # The run's index: exactly the pointers the appends returned, so
        # nobody has to scan the run to learn them.
        self._repo.write_run_index(
            segment.file_no, encode_index_file(versions, tombstones)
        )
        result.new_segments.append(segment.file_no)

    # -- tail plans ---------------------------------------------------------

    def _run_tail(self) -> CompactionResult:
        stats = CompactionStats()
        inputs = list(self._plan.inputs)
        committed: set[int] = set()
        resolved: set[int] = set()  # txns with a COMMIT or ABORT in the plan
        data: dict[int, list[LogRecord]] = {}  # file_no -> WRITEs/INVALIDATEs
        txns_by_segment: dict[int, set[int]] = defaultdict(set)
        for file_no in inputs:
            records = data[file_no] = []
            for pointer, record in self._repo.scan_segment(file_no):
                stats.input_records += 1
                stats.bytes_read += pointer.size
                kind = record.record_type
                if kind is RecordType.WRITE or kind is RecordType.INVALIDATE:
                    if record.txn_id != 0:
                        txns_by_segment[file_no].add(record.txn_id)
                    records.append(record)
                elif kind is RecordType.COMMIT:
                    committed.add(record.txn_id)
                    resolved.add(record.txn_id)
                elif kind is RecordType.ABORT:
                    resolved.add(record.txn_id)

        # Budget-capped plans must not treat a transaction whose COMMIT
        # lies past the cut as uncommitted: defer its segments instead.
        deferred: set[int] = set()
        unsorted_live = {
            f for f in self._repo.segments() if self._repo.segment_scope(f) is None
        }
        if not unsorted_live <= set(inputs):
            dangling = set().union(*txns_by_segment.values(), set()) - resolved
            if dangling:
                deferred = {
                    f for f, txns in txns_by_segment.items() if txns & dangling
                }

        # The shuffle: each scope's WRITEs and INVALIDATEs per key, in log
        # order; a key this server does not own leaves as a whole.
        grouped: dict[tuple[str, str], dict[bytes, list[LogRecord]]] = defaultdict(
            lambda: defaultdict(list)
        )
        for file_no, records in data.items():
            if file_no in deferred:
                continue
            for record in records:
                if record.txn_id != 0 and record.txn_id not in committed:
                    stats.dropped_uncommitted += 1
                    continue
                grouped[(record.table, record.group)][record.key].append(record)
        if self._owned is not None:
            for (table, _), per_key in grouped.items():
                for key in [k for k in per_key if not self._owned(table, k)]:
                    stats.dropped_unowned += len(per_key.pop(key))
        scopes = sorted(scope for scope, per_key in grouped.items() if per_key)

        retired = [f for f in inputs if f not in deferred]
        result = CompactionResult(stats=stats, retired_segments=retired)
        # Coverage must be decided before any output segment is created
        # (a new run of the same scope must not count as "outside").
        input_set = set(retired)
        covered = {s: self._scope_covered(s, input_set) for s in scopes}
        for scope in scopes:
            table, group = scope
            self._write_run(
                table,
                group,
                not covered[scope],
                self._tail_keys(grouped[scope], stats),
                result,
            )
        return result

    def _tail_keys(
        self, per_key: dict[bytes, list[LogRecord]], stats: CompactionStats
    ) -> Iterator[tuple[bytes, int, int, list[LogRecord]]]:
        """The reduce step for one scope: per key, in key order, its delete
        high-water mark (the first INVALIDATE with the highest timestamp)
        and the versions that survive it and retention."""
        for key in sorted(per_key):
            cutoff, cutoff_lsn = -1, 0
            versions: list[LogRecord] = []
            for record in per_key[key]:
                if record.record_type is RecordType.WRITE:
                    versions.append(record)
                elif record.timestamp > cutoff:
                    cutoff, cutoff_lsn = record.timestamp, record.lsn
            if len(versions) > 1:
                versions.sort(key=lambda r: r.timestamp)
            live = [r for r in versions if r.timestamp > cutoff]
            stats.dropped_deleted += len(versions) - len(live)
            live = _trim_versions(live, stats, self._max_versions, self._retain_after)
            yield key, cutoff, cutoff_lsn, live

    # -- merge plans --------------------------------------------------------

    def _run_merge(self) -> CompactionResult:
        table, group = self._plan.scope
        stats = CompactionStats()
        inputs = list(self._plan.inputs)
        result = CompactionResult(stats=stats, retired_segments=inputs)
        covered = self._scope_covered((table, group), set(inputs))
        self._write_run(
            table, group, not covered, self._merged_keys(table, inputs, stats), result
        )
        return result

    def _merged_keys(
        self, table: str, inputs: list[int], stats: CompactionStats
    ) -> Iterator[tuple[bytes, int, int, list[LogRecord]]]:
        """Per key of the merged runs, in key order, its delete high-water
        mark and the versions that survive it, ownership and retention."""
        for key, records in self._merge_by_key(inputs, stats):
            # records arrive in timestamp order and may include carried
            # tombstones from earlier incremental rounds.
            cutoff, cutoff_lsn = -1, 0
            versions: list[LogRecord] = []
            seen_ts: set[int] = set()
            for record in records:
                if record.record_type is RecordType.INVALIDATE:
                    if record.timestamp > cutoff:
                        cutoff, cutoff_lsn = record.timestamp, record.lsn
                elif record.record_type is RecordType.WRITE:
                    if record.timestamp in seen_ts:
                        continue  # duplicate copy across runs
                    seen_ts.add(record.timestamp)
                    versions.append(record)
            if self._owned is not None and not self._owned(table, key):
                stats.dropped_unowned += len(versions)
                continue
            live = [r for r in versions if r.timestamp > cutoff]
            stats.dropped_deleted += len(versions) - len(live)
            live = _trim_versions(live, stats, self._max_versions, self._retain_after)
            yield key, cutoff, cutoff_lsn, live

    def _merge_by_key(
        self, inputs: list[int], stats: CompactionStats
    ) -> Iterator[tuple[bytes, list[LogRecord]]]:
        """K-way heap merge over sorted runs, yielding one key's records
        at a time in (key, timestamp) order — the streaming core that
        keeps merge memory bounded by versions-per-key, not log size."""
        streams = [self._scan_counted(file_no, stats) for file_no in inputs]
        heap: list[tuple[bytes, int, int, LogRecord]] = []
        for idx, stream in enumerate(streams):
            first = next(stream, None)
            if first is not None:
                heapq.heappush(heap, (first.key, first.timestamp, idx, first))
        current_key: bytes | None = None
        bucket: list[LogRecord] = []
        while heap:
            key, _, idx, record = heapq.heappop(heap)
            nxt = next(streams[idx], None)
            if nxt is not None:
                heapq.heappush(heap, (nxt.key, nxt.timestamp, idx, nxt))
            if current_key is not None and key != current_key:
                yield current_key, bucket
                bucket = []
            current_key = key
            bucket.append(record)
        if current_key is not None:
            yield current_key, bucket

    def _scan_counted(
        self, file_no: int, stats: CompactionStats
    ) -> Iterator[LogRecord]:
        for pointer, record in self._repo.scan_segment(file_no):
            stats.input_records += 1
            stats.bytes_read += pointer.size
            yield record
