"""Failure recovery (§3.8): redo from the last consistent checkpoint.

Recovery of a restarted tablet server:

1. load the checkpoint, if one exists: the index files of the runs its
   block names and its tail files (:mod:`repro.core.checkpoint`);
2. redo-scan the log from the checkpoint position: committed writes whose
   LSN exceeds the checkpointed LSN are re-applied to the indexes;
   invalidated entries re-apply their deletions; writes of transactions
   with no commit record are ignored (MVOCC defers all modifications to
   commit time, so redo-only recovery is sufficient — no undo).

Permanent failure of a server instead *splits* its log by tablet (the
log is in the shared DFS) so healthy servers can adopt the tablets and
recover them from the split files.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Iterable

from repro.core.checkpoint import CheckpointManager
from repro.core.tablet_server import TabletServer
from repro.dfs.datanode import CHECKSUM_CHUNK
from repro.dfs.filesystem import DFS
from repro.errors import RecoveryError, TabletNotFound
from repro.obs.hist import Histogram
from repro.obs.trace import root_span, span
from repro.sim.failure import (
    CP_ADOPT_MID,
    CP_RECOVERY_MID,
    CP_SPLIT_PERSIST,
    crash_point,
)
from repro.sim.machine import Machine
from repro.sim.metrics import (
    HIST_RECOVERY_TABLET_SECONDS,
    RECOVERY_ADOPT_SKIPPED,
    RECOVERY_DELETES_APPLIED,
    RECOVERY_PARALLEL_RUNS,
    RECOVERY_SPLITS_PERSISTED,
    RECOVERY_TABLETS_RECOVERED,
    RECOVERY_WRITES_APPLIED,
    SPAN_RECOVERY_ADOPT,
    SPAN_RECOVERY_RECOVER,
    SPAN_RECOVERY_REDO,
    SPAN_RECOVERY_TABLET,
)
from repro.sim.scheduler import ConcurrentScheduler, Invoke, measured
from repro.wal.record import LogPointer, LogRecord, RecordType
from repro.wal.replay import CommitGate, Tombstones, as_committed, redo
from repro.wal.repository import LogRepository

# Gate every tablet's records, so no per-tablet filter may drop them.
_MARKERS = (RecordType.COMMIT, RecordType.ABORT)


@dataclass
class RecoveryReport:
    """What a recovery pass did (asserted by tests, reported by benches).

    ``seconds`` is the recovery wall-clock: the machine-clock delta for
    the sequential path, the virtual-time makespan of the worker fleet
    for the parallel path (workers overlap, so the makespan is what a
    client would observe as unavailability).
    """

    used_checkpoint: bool = False
    checkpoint_lsn: int = 0
    records_scanned: int = 0
    writes_applied: int = 0
    deletes_applied: int = 0
    uncommitted_ignored: int = 0
    seconds: float = 0.0
    # -- fast-recovery extras (defaults keep the sequential path's shape) --
    parallel: bool = False
    tablets_recovered: int = 0
    skipped: int = 0  # adoption replays deduped as already applied
    tablet_seconds: dict[str, float] = field(default_factory=dict)
    tablet_ready: dict[str, float] = field(default_factory=dict)  # virtual ready time
    first_ready_seconds: float = 0.0  # earliest tablet_ready (0.0 if none)

    def to_dict(self) -> dict:
        return asdict(self)


def redo_scan(
    server: TabletServer,
    *,
    start: LogPointer | None = None,
    min_lsn: int = 0,
    repository: LogRepository | None = None,
) -> RecoveryReport:
    """Redo committed log records into the server's indexes.

    Args:
        server: the recovering (or adopting) server.
        start: log position to scan from (checkpoint position); None scans
            the whole log.
        min_lsn: records at or below this LSN are already reflected in the
            reloaded checkpoint and are skipped.
        repository: log to scan; defaults to the server's own log (a
            split-log file from a failed peer may be passed instead).

    What takes effect is decided by :mod:`repro.wal.replay`; records
    still behind the commit gate when the scan ends are ignored (they
    will disappear at the next compaction).
    """
    report = RecoveryReport()
    log = repository if repository is not None else server.log
    gate = CommitGate(_redo_into(server, report))
    max_lsn = min_lsn
    current_segment = -1
    with span(SPAN_RECOVERY_REDO, log.machine):
        for pointer, record in log.scan_all(start=start):
            if pointer.file_no != current_segment:
                current_segment = pointer.file_no
                crash_point(
                    CP_RECOVERY_MID, server=server.name, segment=current_segment
                )
            report.records_scanned += 1
            max_lsn = max(max_lsn, record.lsn)
            if record.lsn > min_lsn:
                gate.feed(pointer, record)
    report.uncommitted_ignored = gate.uncommitted
    if log is server.log:
        # Only a scan of the server's *own* log may move its LSN cursor:
        # scanning a foreign repository (a dead peer's split file) says
        # nothing about what this server has appended.
        server.log.set_next_lsn(max_lsn + 1)
    return report


def _redo_into(server: TabletServer, report: RecoveryReport):
    """The ``apply`` every recovery path hands its :class:`CommitGate`:
    :func:`~repro.wal.replay.redo` into the index ``server`` holds for the
    record, counted in ``report``.  One closure is one scan (it owns the
    scan's tombstone marks)."""
    tombstones: Tombstones = {}

    def apply(pointer: LogPointer, record: LogRecord) -> bool:
        try:
            index = server.index_for(record.table, record.key, record.group)
        except TabletNotFound:
            index = None  # tablet now owned elsewhere
        if not redo(index, pointer, record, tombstones):
            return False
        if record.record_type is RecordType.WRITE:
            report.writes_applied += 1
        else:
            report.deletes_applied += 1
            server.mark_deleted(
                (record.table, record.group), (record.key, record.timestamp, pointer)
            )
        return True

    return apply


def recover_server(server: TabletServer, checkpoints: CheckpointManager) -> RecoveryReport:
    """Full restart recovery: reload checkpoint (if any) then redo the tail."""
    start_clock = server.machine.clock.now
    # Recovery runs with no client op open, so on a traced machine it
    # starts its own trace; on an untraced one the span is a no-op.
    with root_span(SPAN_RECOVERY_RECOVER, server.machine, server=server.name):
        # Spilled (LSM) indexes can reopen their flushed runs from the
        # manifest instead of rebuilding them from the log.
        for index in server.indexes().values():
            reopen = getattr(index, "reopen", None)
            if reopen is not None:
                reopen()
        start: LogPointer | None = None
        min_lsn = 0
        used = False
        if checkpoints.has_checkpoint():
            block = checkpoints.load_checkpoint()
            start = block.position
            min_lsn = block.lsn
            used = True
        report = redo_scan(server, start=start, min_lsn=min_lsn)
    report.used_checkpoint = used
    report.checkpoint_lsn = min_lsn
    report.seconds = server.machine.clock.now - start_clock
    server.last_recovery = report
    return report


@dataclass
class SplitLogs:
    """Output of :func:`split_log_by_tablet`."""

    paths: dict[str, str] = field(default_factory=dict)  # tablet id -> path


def split_fence_path(failed_server_name: str) -> str:
    """DFS path of a failed server's split fence token."""
    return f"/logbase/splits/{failed_server_name}/FENCE"


def read_split_fence(dfs: DFS, failed_server_name: str, machine: Machine) -> int | None:
    """Current fence epoch of a server's split directory (None if unfenced)."""
    path = split_fence_path(failed_server_name)
    if not dfs.exists(path):
        return None
    return int(dfs.open(path, machine).read_all(verified=True).decode())


def split_log_by_tablet(
    dfs: DFS,
    failed_server_name: str,
    splitter: Machine,
    *,
    locate=None,
    fence: int | None = None,
) -> SplitLogs:
    """Split a failed server's log into one file per tablet (§3.8).

    "The log of the failed servers, which is stored in the shared DFS, is
    scanned (from the consistent recovery starting point) and split into
    separate files for each tablet."  The adopting servers then redo from
    their tablet's split file.  Only failover stages files: one scan of a
    dead server's log feeds every adopter of its whole tablet set.  A
    tablet moving between live servers is read straight out of the
    source's log (:mod:`repro.core.migration`).

    Args:
        locate: ``(table, key) -> tablet id`` from the *current*
            catalog; the master passes :meth:`SharedCatalog.tablet_for`.
            It outranks the id stamped on the record, which is stripped
            in compacted (slim) segments and names the *parent* on every
            record logged before a tablet split.
        fence: epoch token installed *after* every split file; adopters
            that were handed this epoch refuse to replay a directory
            whose fence does not match (a crashed splitter leaves the old
            fence — or none — so a retried failover re-splits under a
            fresh epoch before anyone adopts).
    """
    failed_log = LogRepository.reattach(
        dfs, splitter, f"/logbase/{failed_server_name}/log"
    )
    buffers: dict[str, list[bytes]] = defaultdict(list)
    for _, record in failed_log.scan_all():
        if record.record_type in _MARKERS:
            # Commit/abort markers gate every tablet's records: replicate
            # them into every split so per-tablet redo sees them.
            for buffer in buffers.values():
                buffer.append(record.encode())
            continue
        tablet = record.tablet
        if locate is not None:
            tablet = locate(record.table, record.key) or tablet
        buffers[tablet].append(record.encode())
    result = SplitLogs()
    for tablet_id, frames in sorted(buffers.items()):
        path = f"/logbase/splits/{failed_server_name}/{tablet_id}/segment-00000001.log"
        # A crash before the swap leaves only the staged file: reattach
        # skips it (not a numbered segment) and an adopter still sees the
        # previous split — or nothing — never a torn one.
        dfs.install(
            path,
            b"".join(frames),
            splitter,
            before_swap=partial(
                crash_point, CP_SPLIT_PERSIST, server=failed_server_name, tablet=tablet_id
            ),
        )
        splitter.counters.add(RECOVERY_SPLITS_PERSISTED)
        result.paths[tablet_id] = path
    if fence is not None:
        # The fence goes in last: it vouches that every split file above
        # belongs to this epoch.  Crashing before this line leaves a
        # stale (or absent) fence and adopters refuse the directory.
        dfs.install(split_fence_path(failed_server_name), str(fence).encode(), splitter)
    return result


def rehome(
    server: TabletServer,
    scan: Iterable[tuple[LogPointer, LogRecord]],
    tablet_id: str,
    accept: Callable[[LogRecord], bool] | None = None,
) -> RecoveryReport:
    """Re-home what takes effect in ``scan`` into ``server``'s own log and
    indexes — the one loop by which a tablet's records change logs.

    Failover adoption feeds it a split file, a migration the source's log
    read from the shared DFS.  The server must already have ``tablet_id``
    assigned.  An index pointer must name a log the server owns, so each
    effective record is re-appended once to the server's log (which also
    makes the tablet's data local) and indexed at its new position.

    Records are appended by the chunk, as compaction writes a run: the
    effective ones queue until they fill a DFS checksum chunk and go out
    in one commit-coordinator append (one replication round trip, one
    chunk-CRC pass), then are indexed in order at the positions it returned.

    Re-homing is restartable: a write whose (key, timestamp) version is
    already in the server's index (an earlier attempt, or the catch-up
    pass before a flip delta, appended it) or in the queue is skipped, so
    running over the same records again never double-appends.  A crash
    loses only the queue, which the next attempt re-reads.

    Args:
        accept: which WRITE / INVALIDATE records of ``scan`` belong to the
            tablet; None takes them all (a split file holds one tablet).
            COMMIT / ABORT markers always reach the gate.
    """
    report = RecoveryReport()
    apply = _redo_into(server, report)
    queue: list[LogRecord] = []
    queued_versions: set[tuple[str, str, bytes, int]] = set()
    queued_bytes = 0

    def flush() -> None:
        nonlocal queued_bytes
        # The commit markers are not rewritten, hence the stamp.
        appended = server.commit.commit([as_committed(r) for r in queue])
        for (pointer, _), record in zip(appended, queue):
            apply(pointer, record)
        queue.clear()
        queued_versions.clear()
        queued_bytes = 0

    def already_adopted(record: LogRecord) -> bool:
        # TSO timestamps are unique per version, so an index entry with
        # this record's (key, timestamp) can only be an earlier pass's
        # append — replaying it again would double-append.
        try:
            index = server.index_for(record.table, record.key, record.group)
        except TabletNotFound:
            return False
        return any(
            entry.timestamp == record.timestamp
            for entry in index.versions(record.key)
        )

    def move(source: LogPointer, record: LogRecord) -> bool:
        nonlocal queued_bytes
        crash_point(CP_ADOPT_MID, server=server.name, tablet=tablet_id)
        if record.record_type is RecordType.WRITE:
            version = (record.table, record.group, record.key, record.timestamp)
            if version in queued_versions or already_adopted(record):
                report.skipped += 1
                server.machine.counters.add(RECOVERY_ADOPT_SKIPPED)
                return False
            queued_versions.add(version)
        # A tombstone is not deduped: its replay is naturally idempotent
        # (the mark only moves forward) and duplicates from a restarted
        # adoption collapse at the next compaction's (key, timestamp)
        # dedupe.
        queue.append(record)
        queued_bytes += source.size
        if queued_bytes >= CHECKSUM_CHUNK:
            flush()
        return True

    gate = CommitGate(move)
    with root_span(SPAN_RECOVERY_ADOPT, server.machine, tablet=tablet_id):
        for pointer, record in scan:
            report.records_scanned += 1
            if accept is None or record.record_type in _MARKERS or accept(record):
                gate.feed(pointer, record)
        if queue:
            flush()
    report.uncommitted_ignored = gate.uncommitted
    return report


def adopt_split_log(
    server: TabletServer,
    dfs: DFS,
    failed_server_name: str,
    tablet_id: str,
    *,
    fence: int | None = None,
) -> RecoveryReport:
    """:func:`rehome` one tablet's split-log file into an adopting server.

    When ``fence`` is given, the split directory's fence token must match
    it — a stale fence means the splitter crashed before finishing this
    epoch and the failover must re-split first.

    Raises:
        RecoveryError: on a fence mismatch.
    """
    if fence is not None:
        found = read_split_fence(dfs, failed_server_name, server.machine)
        if found != fence:
            raise RecoveryError(
                f"split fence mismatch for {failed_server_name}: "
                f"expected epoch {fence}, found {found}"
            )
    split_root = f"/logbase/splits/{failed_server_name}/{tablet_id}"
    split_repo = LogRepository.reattach(dfs, server.machine, split_root)
    return rehome(server, split_repo.scan_all(), tablet_id)


def recover_server_parallel(
    server: TabletServer,
    checkpoints: CheckpointManager,
    *,
    heat: dict[str, float] | None = None,
    workers: int | None = None,
    on_tablet_ready=None,
) -> RecoveryReport:
    """Fast restart recovery: partitioned redo scan, hot-first bring-up.

    Two phases, each multiplexed over ``config.recovery_workers`` virtual
    clients of the :class:`~repro.sim.scheduler.ConcurrentScheduler`:

    1. **Partitioned tail scan** — the log segments after the checkpoint
       position are scanned concurrently; records are *collected* per
       segment (nothing is applied yet).  Scan wall-clock is the widest
       worker's lane, not the whole log.
    2. **Hot-first bring-up** — tablets ordered by access heat (hottest
       first) are brought up concurrently: load the tablet's part of the
       checkpoint, apply its gated records in the sequential redo's
       order, then flip the tablet to serving immediately.  Until a
       tablet's own redo completes, ops on it raise the retryable
       :class:`~repro.errors.TabletRecoveringError`.

    Commit gating is resolved between the phases in plain bookkeeping:
    what the lanes collected goes through the same
    :class:`~repro.wal.replay.CommitGate` in log order, so this path
    differs from :func:`recover_server` in scheduling only and the
    resulting index state matches it on the same log.

    The pass is restartable: it mutates only in-memory indexes (plus the
    max-clamped LSN cursor), so a crash at :data:`CP_RECOVERY_MID` and a
    re-run from the same checkpoint converges to the same state.

    Args:
        heat: ``tablet id -> access count`` ordering hint (the master's
            heartbeat snapshot); missing tablets count as cold.
        workers: override ``config.recovery_workers``.
        on_tablet_ready: ``(tablet_id, virtual_ready_time)`` callback
            fired as each tablet flips to serving.
    """
    machine = server.machine
    start_clock = machine.clock.now
    n_workers = max(1, workers if workers is not None else server.config.recovery_workers)
    heat = heat or {}
    report = RecoveryReport(parallel=True)
    redo_histogram = Histogram(HIST_RECOVERY_TABLET_SECONDS)

    with root_span(
        SPAN_RECOVERY_RECOVER, machine, server=server.name, parallel=True
    ):
        server.begin_tablet_recovery(server.tablets.keys())

        block = None
        start: LogPointer | None = None
        min_lsn = 0
        if checkpoints.has_checkpoint():
            # Only the block is read up front; each tablet loads its own
            # files during bring-up so cold tablets do not delay hot
            # ones (a run's index is read by the first that needs it).
            block = checkpoints.resume()
            start = block.position
            min_lsn = block.lsn
            report.used_checkpoint = True
            report.checkpoint_lsn = min_lsn

        # -- phase 1: partitioned tail scan -----------------------------
        tail = [
            file_no
            for file_no in server.log.segments()
            if start is None or file_no >= start.file_no
        ]
        shared = {"max_lsn": min_lsn, "scanned": 0}
        # segment -> what its lane scanned past the checkpoint, in order
        collected: dict[int, list[tuple[LogPointer, LogRecord]]] = {}

        def scan_segment_fn(file_no: int):
            def run(now: float) -> None:
                crash_point(CP_RECOVERY_MID, server=server.name, segment=file_no)
                kept = collected[file_no] = []
                for pointer, record in server.log.scan_segment(file_no):
                    if (
                        start is not None
                        and file_no == start.file_no
                        and pointer.offset < start.offset
                    ):
                        continue
                    shared["scanned"] += 1
                    if record.lsn > shared["max_lsn"]:
                        shared["max_lsn"] = record.lsn
                    if record.lsn > min_lsn:
                        kept.append((pointer, record))

            return measured(machine, run)

        def scan_worker(lane: list[int]):
            for file_no in lane:
                yield Invoke(scan_segment_fn(file_no))

        scan_sched = ConcurrentScheduler()
        for lane in (tail[i::n_workers] for i in range(n_workers)):
            if lane:
                scan_sched.add_client(scan_worker(lane))
        scan_makespan = scan_sched.run()
        report.records_scanned = shared["scanned"]
        # The cursor moves before any tablet serves, so the first
        # post-recovery append already has a fresh LSN.
        server.log.set_next_lsn(shared["max_lsn"] + 1)

        # -- commit gating (plain bookkeeping, no simulated cost) -------
        # The lanes' output goes through the gate in log order, so each
        # tablet's effective records queue in the order the sequential
        # scan would have applied them.
        effective: dict[str, list[tuple[LogPointer, LogRecord]]] = defaultdict(list)

        def enqueue(pointer: LogPointer, record: LogRecord) -> bool:
            try:
                tablet = server._route(record.table, record.key)
            except TabletNotFound:
                return False  # owned elsewhere: nothing to redo here
            effective[str(tablet.tablet_id)].append((pointer, record))
            return True

        gate = CommitGate(enqueue)
        for file_no in tail:
            for pointer, record in collected[file_no]:
                gate.feed(pointer, record)
        report.uncommitted_ignored = gate.uncommitted

        order = sorted(
            server.tablets.keys(), key=lambda tid: (-heat.get(tid, 0.0), tid)
        )
        apply = _redo_into(server, report)
        decoded: dict = {}  # run -> its index file, read once for all tablets

        # -- phase 2: hot-first per-tablet bring-up ---------------------
        def bring_up_fn(tablet_key: str):
            def run(now: float) -> tuple[None, float]:
                crash_point(CP_RECOVERY_MID, server=server.name, tablet=tablet_key)
                clock0 = machine.clock.now
                tablet = server.tablets[tablet_key]
                with span(SPAN_RECOVERY_TABLET, machine, tablet=tablet_key):
                    for group in tablet.schema.group_names:
                        index = server._ensure_index(tablet.tablet_id, group)
                        reopen = getattr(index, "reopen", None)
                        if reopen is not None:
                            reopen()
                    if block is not None:
                        checkpoints.load_checkpoint(block, tablet_key, decoded)
                    for pointer, record in effective.get(tablet_key, ()):
                        apply(pointer, record)
                seconds = machine.clock.now - clock0
                server.finish_tablet_recovery(tablet_key)
                ready_at = now + seconds
                report.tablet_seconds[tablet_key] = seconds
                report.tablet_ready[tablet_key] = ready_at
                redo_histogram.record(seconds)
                machine.counters.add(RECOVERY_TABLETS_RECOVERED)
                if on_tablet_ready is not None:
                    on_tablet_ready(tablet_key, ready_at)
                return None, seconds

            return run

        def bring_up_worker(lane: list[str]):
            for tablet_key in lane:
                yield Invoke(bring_up_fn(tablet_key))

        bring_sched = ConcurrentScheduler()
        for lane in (order[i::n_workers] for i in range(n_workers)):
            if lane:
                bring_sched.add_client(bring_up_worker(lane), at=scan_makespan)
        total = bring_sched.run() if order else scan_makespan

    report.seconds = max(total, scan_makespan)
    report.tablets_recovered = len(order)
    if report.tablet_ready:
        report.first_ready_seconds = min(report.tablet_ready.values())
    machine.counters.add(RECOVERY_PARALLEL_RUNS)
    machine.counters.add(RECOVERY_WRITES_APPLIED, report.writes_applied)
    machine.counters.add(RECOVERY_DELETES_APPLIED, report.deletes_applied)
    server.last_recovery = report
    server.recovery_histogram = redo_histogram
    return report
