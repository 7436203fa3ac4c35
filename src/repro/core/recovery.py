"""Failure recovery (§3.8): redo from the last consistent checkpoint.

Recovery of a restarted tablet server:

1. load the checkpoint, if one exists: the index files of the runs its
   block names and its tail files (:mod:`repro.core.checkpoint`);
2. redo the log from the checkpoint position through a
   :class:`~repro.wal.replay.LogCursor`: what committed past the
   checkpointed LSN is re-applied (redo only: MVOCC defers every
   modification to commit time).

Permanent failure of a server instead *splits* its log by tablet (the
log is in the shared DFS) so healthy servers can adopt the tablets and
recover them from the split files.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace
from functools import partial

from repro.core.checkpoint import CheckpointBlock, CheckpointManager
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
from repro.wal.replay import MARKERS, LogCursor, Tombstones, as_committed, redo
from repro.wal.repository import LogRepository

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


def _redo_into(server: TabletServer, report: RecoveryReport, tombstones: Tombstones):
    """The ``apply`` of every recovery path: :func:`~repro.wal.replay.redo`
    into ``server``'s index for the record, counted in ``report``."""

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


def _redo_cursor(
    server: TabletServer, checkpoints: CheckpointManager, report: RecoveryReport
) -> tuple[CheckpointBlock | None, LogCursor]:
    """The checkpoint block a restart resumes from, if any, and a cursor
    over ``server``'s log from its position (the whole log without one)."""
    if not checkpoints.has_checkpoint():
        return None, LogCursor(server.log)
    block = checkpoints.resume()
    report.used_checkpoint, report.checkpoint_lsn = True, block.lsn
    position = (block.position.file_no, block.position.offset)
    return block, LogCursor(server.log, position=position, min_lsn=block.lsn)


def _restored(server: TabletServer, cursor: LogCursor, report: RecoveryReport) -> None:
    """Take the LSN counter (so the first append after recovery has a
    fresh LSN) and the counts from a drained redo cursor."""
    server.log.set_next_lsn(cursor.max_lsn + 1)
    report.records_scanned = cursor.scanned
    report.uncommitted_ignored = cursor.gate.uncommitted


def recover_server(server: TabletServer, checkpoints: CheckpointManager) -> RecoveryReport:
    """Full restart recovery: reload the checkpoint (if any), then redo the
    log from its position.  What takes effect is decided by
    :mod:`repro.wal.replay`; records still behind the commit gate at the
    end are ignored (they disappear at the next compaction)."""
    start_clock = server.machine.clock.now
    report = RecoveryReport()
    # Recovery runs with no client op open, so on a traced machine it
    # starts its own trace; on an untraced one the span is a no-op.
    with root_span(SPAN_RECOVERY_RECOVER, server.machine, server=server.name):
        # Spilled (LSM) indexes can reopen their flushed runs from the
        # manifest instead of rebuilding them from the log.
        for index in server.indexes().values():
            reopen = getattr(index, "reopen", None)
            if reopen is not None:
                reopen()
        block, cursor = _redo_cursor(server, checkpoints, report)
        if block is not None:
            checkpoints.load_checkpoint(block, tombstones=cursor.tombstones)
        with span(SPAN_RECOVERY_REDO, server.machine):
            for file_no in cursor.pending():
                crash_point(CP_RECOVERY_MID, server=server.name, segment=file_no)
                cursor.fetch(file_no)
            cursor.read(_redo_into(server, report, cursor.tombstones))
        _restored(server, cursor, report)
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
        if record.record_type in MARKERS:
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


def rehome(server: TabletServer, cursor: LogCursor, tablet_id: str) -> RecoveryReport:
    """Re-home what takes effect in ``cursor``'s log into ``server``'s own
    log and indexes — the one loop by which a tablet's records change logs.

    Failover adoption reads a split file, a migration the source's log
    from the shared DFS, filtered by tablet (the cursor's ``keep``).  The
    server must already have ``tablet_id`` assigned.  An index pointer
    must name a log the server owns, so each effective record is
    re-appended once to the server's log (which also makes the tablet's
    data local) and indexed at its new position.

    Records are appended by the chunk, as compaction writes a run: the
    effective ones queue until they fill a DFS checksum chunk and go out
    in one commit-coordinator append (one replication round trip, one
    chunk-CRC pass), then are indexed in order at the positions it
    returned.  A run's rows arrive without their values, which the flush
    reads in one batch for the versions it appends.

    Re-homing is restartable: a write whose (key, timestamp) version is
    already in the server's index (an earlier attempt or pass appended it)
    or in the queue is skipped, and a crash loses only the queue.
    """
    report = RecoveryReport()
    apply = _redo_into(server, report, cursor.tombstones)
    queue: list[tuple[LogPointer, LogRecord]] = []
    queued_versions: set[tuple[str, str, bytes, int]] = set()
    queued_bytes = 0

    def flush() -> None:
        nonlocal queued_bytes
        # A run's version is read now, after the dedupe passed it.
        unread = [i for i, (_, r) in enumerate(queue) if r.value is None and not r.is_delete]
        values = cursor.repo.read_many([queue[i][0] for i in unread])
        for i, value in zip(unread, values):
            queue[i] = queue[i][0], replace(queue[i][1], value=value)
        # The commit markers are not rewritten, hence the stamp.
        records = [as_committed(record) for _, record in queue]
        for (pointer, _), record in zip(server.commit.commit(records), records):
            apply(pointer, record)
        queue.clear()
        queued_versions.clear()
        queued_bytes = 0

    def already_adopted(record: LogRecord) -> bool:
        # TSO timestamps are unique per version: an entry at this record's
        # (key, timestamp) can only be an earlier pass's append.
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
        # A tombstone is not deduped: its replay is idempotent, and the
        # next compaction's (key, timestamp) dedupe collapses copies.
        queue.append((source, record))
        queued_bytes += source.size
        if queued_bytes >= CHECKSUM_CHUNK:
            flush()
        return True

    with root_span(SPAN_RECOVERY_ADOPT, server.machine, tablet=tablet_id):
        cursor.read(move)
        if queue:
            flush()
    report.records_scanned = cursor.scanned
    report.uncommitted_ignored = cursor.gate.uncommitted
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
    return rehome(server, LogCursor(LogRepository.reattach(dfs, server.machine, split_root)), tablet_id)


def _in_lanes(items: list, n_workers: int, step, start: float = 0.0) -> float:
    """Run ``step(item)`` for every item on ``n_workers`` virtual workers
    from ``start``; returns the makespan (``start`` with no items)."""
    if not items:
        return start
    scheduler = ConcurrentScheduler()
    for lane in (items[i::n_workers] for i in range(n_workers)):
        if lane:
            scheduler.add_client((Invoke(step(item)) for item in lane), at=start)
    return scheduler.run()


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

    1. **Partitioned tail scan** — the lanes fetch the redo cursor's
       files concurrently (wall-clock is the widest lane), then the
       cursor reads them in log order through its gate, queueing each
       effective record on its tablet: :func:`recover_server` in another
       schedule, to the same index state.
    2. **Hot-first bring-up** — tablets, hottest first, load their part
       of the checkpoint, apply their queue and serve at once; until
       then ops on them raise the retryable
       :class:`~repro.errors.TabletRecoveringError`.

    The pass mutates only in-memory indexes (and the max-clamped LSN
    counter), so a crash at :data:`CP_RECOVERY_MID` and a re-run from the
    same checkpoint converge.

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

        # Only the block is read up front; each tablet loads its own
        # files during bring-up so cold tablets do not delay hot ones (a
        # run's index is read by the first that needs it).
        block, cursor = _redo_cursor(server, checkpoints, report)

        # -- phase 1: partitioned tail scan -----------------------------
        def scan_segment_fn(file_no: int):
            def run(now: float) -> None:
                crash_point(CP_RECOVERY_MID, server=server.name, segment=file_no)
                cursor.fetch(file_no)

            return measured(machine, run)

        scan_makespan = _in_lanes(cursor.pending(), n_workers, scan_segment_fn)

        # -- commit gating, in log order (no simulated cost) -----------
        effective: dict[str, list[tuple[LogPointer, LogRecord]]] = defaultdict(list)

        def enqueue(pointer: LogPointer, record: LogRecord) -> bool:
            try:
                tablet = server._route(record.table, record.key)
            except TabletNotFound:
                return False  # owned elsewhere: nothing to redo here
            effective[str(tablet.tablet_id)].append((pointer, record))
            return True

        cursor.read(enqueue)
        _restored(server, cursor, report)

        order = sorted(
            server.tablets.keys(), key=lambda tid: (-heat.get(tid, 0.0), tid)
        )
        apply = _redo_into(server, report, cursor.tombstones)
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
                        checkpoints.load_checkpoint(
                            block, tablet_key, decoded, cursor.tombstones
                        )
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

        total = _in_lanes(order, n_workers, bring_up_fn, scan_makespan)

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
