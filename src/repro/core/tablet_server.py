"""The LogBase tablet server (§3.6): log-only tablet serving.

Each server manages (i) a *single log instance* in the DFS holding data of
every tablet it serves, (ii) one in-memory multiversion index per column
group per tablet, and (iii) an optional read buffer.  A write is appended
to the log once, through the server's commit coordinator (the only code
that appends to the log), the index is updated with the returned
pointer, and the write is done — there is no memtable flush and no
separate data file, which is the design removing the WAL+Data write
bottleneck.
"""

from __future__ import annotations

from repro.config import LogBaseConfig
from repro.coordination.tso import TimestampOracle
from repro.core.follower import ReplicaHost
from repro.core.read_cache import ReadCache
from repro.core.tablet import (
    Tablet, TabletId, TabletOwnership, TabletRouter, hosted_cover, live_rows,
    read_version,
)
from repro.dfs.filesystem import DFS
from repro.errors import ServerDownError, TabletNotFound, TabletRecoveringError
from repro.index.blink import BLinkTreeIndex
from repro.index.interface import MultiversionIndex, Row
from repro.index.lsm import LSMTreeIndex
from repro.obs.trace import root_span, span
from repro.query.secondary import SecondaryIndexManager
from repro.sim.deadline import check_deadline
from repro.sim.health import AdmissionController
from repro.sim.machine import Machine
from repro.sim.metrics import (
    RECOVERY_REJECTED_OPS,
    SPAN_COMPACTION_PLAN,
    SPAN_COMPACTION_ROUND,
    SPAN_FOLLOWER_READ,
    SPAN_TS_APPEND_TXN,
    SPAN_TS_DELETE,
    SPAN_TS_READ,
    SPAN_TS_WRITE,
    SPAN_TS_WRITE_BATCH,
)
from repro.wal.compaction import CompactionResult, IncrementalCompactionJob
from repro.wal.group_commit import CommitCoordinator
from repro.wal.planner import CompactionPlanner
from repro.wal.record import LogPointer, LogRecord, RecordType, new_record
from repro.wal.repository import LogRepository

IndexKey = tuple[str, str]  # (tablet_id str, group name)


class TabletServer:
    """One tablet-server process co-located with a datanode on a machine.

    Every log append — write, write_batch, append_transactional, delete
    and re-homing — goes through ``self.commit``, one
    :class:`~repro.wal.group_commit.CommitCoordinator` per process."""

    def __init__(
        self,
        name: str,
        machine: Machine,
        dfs: DFS,
        tso: TimestampOracle,
        config: LogBaseConfig | None = None,
    ) -> None:
        self.name = name
        self.machine = machine
        self.dfs = dfs
        self.tso = tso
        self.config = config if config is not None else LogBaseConfig()
        self.config.validate()
        self.read_cache: ReadCache | None = None
        self._open_storage(LogRepository)
        self.tablets: dict[str, Tablet] = {}
        # table -> its hosted tablets' router; built lazily by _route,
        # dropped on assign, unassign and split.
        self._route_cache: dict[str, TabletRouter] = {}
        self._indexes: dict[IndexKey, MultiversionIndex] = {}
        self._update_counters: dict[IndexKey, int] = {}
        self._index_generation = 0  # bumps when compaction replaces indexes
        # (table, group) -> key -> (key, timestamp, pointer) of its newest
        # applied delete whose INVALIDATE no compaction has retired yet.
        self.delete_marks: dict[tuple[str, str], dict[bytes, Row]] = {}
        self.secondary = SecondaryIndexManager()
        # Bounded in-flight queue model (gray-resilience admission
        # control); None — the default — admits everything, the seed
        # behaviour.
        self.admission: AdmissionController | None = (
            AdmissionController(self.config.admission_queue_depth)
            if self.config.gray_resilience
            and self.config.admission_queue_depth is not None
            else None
        )
        self.serving = True
        # Access heat per tablet id (client-facing op counts).  Pure
        # bookkeeping — no simulated cost — so the seed figures are
        # unaffected; fast recovery orders tablet bring-up by it.
        self.heat: dict[str, float] = {}
        # Tablets owned but not yet redone (fast recovery's serve-while-
        # recovering window); ops on them raise TabletRecoveringError.
        self.recovering_tablets: set[str] = set()
        self.ownership = TabletOwnership(self)
        self.replicas = ReplicaHost(self)
        # Last RecoveryReport this server's recovery produced (stats).
        self.last_recovery = None
        # Per-tablet redo-duration histogram of the last parallel recovery.
        self.recovery_histogram = None
        self._checkpoint_hook = None  # wired by CheckpointManager

    def _open_storage(self, open_log) -> None:
        """What a process start builds over the DFS: the log handle
        (``open_log`` is ``LogRepository`` for a first start,
        ``LogRepository.reattach`` for a restart), an empty read cache,
        the commit coordinator, the only code that appends to the
        log (a blocking write with nothing queued is a group of one;
        concurrent submit_write calls coalesce into one DFS replication
        round trip per group), and the compaction planner over the log."""
        self.log = open_log(
            self.dfs,
            self.machine,
            f"/logbase/{self.name}/log",
            self.config.segment_size,
            coalesce_gap=self.config.read_coalesce_gap,
            scan_prefetch=self.config.scan_prefetch_bytes,
            vouch=self.config.read_replicas and self.config.replicas_per_tablet > 0,
        )
        if self.config.read_cache_enabled:
            self.read_cache = ReadCache(self.config.cache_budget_bytes)
        self.commit = CommitCoordinator(self.log, self.machine)
        self.planner = CompactionPlanner(
            self.log, tier_fanout=self.config.compaction_tier_fanout
        )

    # -- lifecycle ------------------------------------------------------------------

    def _require_serving(self) -> None:
        if not self.serving or not self.machine.alive:
            raise ServerDownError(f"tablet server {self.name} is down")

    # -- serving state: recovery window, ownership ----------------------------------

    def begin_tablet_recovery(self, tablet_ids) -> None:
        """Mark tablets as owned-but-recovering: ops on them are rejected
        with a retryable :class:`TabletRecoveringError` until their redo
        finishes (graceful degradation instead of a binary outage)."""
        self.recovering_tablets.update(str(t) for t in tablet_ids)

    def finish_tablet_recovery(self, tablet_id) -> None:
        """Flip one tablet back to serving the moment its redo completes."""
        self.recovering_tablets.discard(str(tablet_id))

    def _check_tablet_serving(self, tablet: Tablet) -> str:
        """Reject an op on ``tablet`` unless it serves; returns its name."""
        tablet_name = str(tablet.tablet_id)
        if self.recovering_tablets and tablet_name in self.recovering_tablets:
            self.machine.counters.add(RECOVERY_REJECTED_OPS)
            raise TabletRecoveringError(
                f"tablet {tablet_name} on {self.name} is still recovering"
            )
        self.ownership.check(tablet_name)
        return tablet_name

    def grant_lease(self, tablet_id) -> None:
        """(Re)grant the ownership lease for one tablet, anchored on this
        machine's clock.  Every grant enters here — the heartbeat's
        renewals, assignment, splits and the migrator's unfences."""
        self.ownership.grant(tablet_id)

    # -- read-replica (follower) serving ---------------------------------------------

    def tail_followed_logs(self) -> dict[str, float]:
        """One tail pass over every followed owner's log (heartbeat-driven).

        Returns the staleness each hosted replica had just *before* the
        pass, keyed by tablet id — the heartbeat-reported lag (``inf``
        for a replica that has never fully drained its owner's log)."""
        self._require_serving()
        return self.replicas.tail()

    def follower_read(
        self,
        table: str,
        key: bytes,
        group: str,
        *,
        as_of: int | None = None,
        max_staleness: float | None = None,
        floor: int = 0,
    ) -> tuple[int, bytes] | None:
        """Bounded-staleness read from a hosted replica.

        Same contract as :meth:`read` but served from the replica's index
        and the *owner's* log segments read on this machine; raises the
        retryable :class:`FollowerLaggingError` when the replica cannot honour
        the staleness bound or the client's ``floor`` (it asks the owner).
        """
        self._require_serving()
        check_deadline("follower read")
        with span(SPAN_FOLLOWER_READ, self.machine, table=table, group=group):
            return self.replicas.read(
                table, key, group, as_of=as_of, max_staleness=max_staleness, floor=floor
            )

    def follower_scan(
        self,
        table: str,
        group: str,
        start_key: bytes,
        end_key: bytes,
        *,
        as_of: int | None = None,
        max_staleness: float | None = None,
        floor: int = 0,
    ) -> list[tuple[bytes, int, bytes]]:
        """Bounded-staleness range scan over this server's replicas.

        Materialized (unlike the owner's lazy :meth:`range_scan`) so a
        staleness rejection or retired log position surfaces inside the
        RPC rather than mid-consumption on the client."""
        self._require_serving()
        check_deadline("follower range scan")
        with span(SPAN_FOLLOWER_READ, self.machine, table=table, group=group):
            return self.replicas.scan(
                table, group, start_key, end_key,
                as_of=as_of, max_staleness=max_staleness, floor=floor,
            )

    def _touch_heat(self, tablet_name: str, key: bytes | None = None) -> None:
        heat = self.heat[tablet_name] = self.heat.get(tablet_name, 0.0) + 1.0
        if key is not None:
            self.ownership.observe(tablet_name, key, heat)

    def crash(self) -> None:
        """Kill the server process: every in-memory structure is lost.

        The log and any checkpoint files survive in the DFS — that is the
        whole durability story (§3.4, Guarantee 1).  Commit groups that
        have not flushed lived only in memory: their members are failed,
        never acked."""
        self.serving = False
        self._lose_memory()
        if self.read_cache is not None:
            self.read_cache.clear()

    def _lose_memory(self) -> None:
        """Drop every in-memory structure a process death loses.

        Anything pending in the commit coordinator dies unacked.  Leases
        go too: a restarted process comes back lease-less — even though
        the idle machine's clock did not advance while it was down,
        ownership may have flipped — so serving resumes only after the
        heartbeat (or the master) grants a fresh lease.  Replicas are
        re-placed by the heartbeat, and their fresh tailers replay the
        owners' logs from the start."""
        self.commit.abandon()
        self._indexes.clear()
        self._update_counters.clear()
        self.delete_marks.clear()
        self.secondary.clear()
        self.heat.clear()
        self.recovering_tablets.clear()
        self.ownership = TabletOwnership(self)
        self.replicas = ReplicaHost(self)

    def restart(self) -> None:
        """Bring the process back up with empty memory.  The caller runs
        recovery (:mod:`repro.core.recovery`) to rebuild the indexes."""
        # A machine-level kill (power failure) skips crash(), but memory
        # is lost all the same: recovery must rebuild from the log rather
        # than trust pre-crash indexes.
        self._lose_memory()
        self._open_storage(LogRepository.reattach)
        self.serving = True

    # -- tablet assignment -------------------------------------------------------------

    def assign_tablet(self, tablet: Tablet) -> None:
        """Take responsibility for ``tablet``: create its group indexes."""
        # Promotion: a server that becomes the owner of a tablet it was
        # following serves authoritatively from now on.
        self.replicas.unfollow(tablet.tablet_id)
        self.tablets[str(tablet.tablet_id)] = tablet
        self._route_cache.pop(tablet.table, None)
        for group in tablet.schema.group_names:
            self._ensure_index(tablet.tablet_id, group)
        self.grant_lease(tablet.tablet_id)

    def unassign_tablet(self, tablet_id: TabletId) -> None:
        """Drop a tablet (after reassignment elsewhere)."""
        tablet = self.tablets.pop(str(tablet_id), None)
        if tablet is not None:
            self._route_cache.pop(tablet.table, None)
        for key in [k for k in self._indexes if k[0] == str(tablet_id)]:
            del self._indexes[key]
            self._update_counters.pop(key, None)
        self.ownership.drop(tablet_id)
        self.heat.pop(str(tablet_id), None)

    def split_tablet(self, old: Tablet, left: Tablet, right: Tablet) -> int:
        """Repartition ``old``'s in-memory state into ``left``/``right``.

        The log is untouched — the log *is* the database, so a split only
        re-buckets index entries by the new ranges (§5's argument for
        cheap migration applies doubly to splits).  Heat and key samples
        are divided by observed key side so the balancer's view stays
        continuous.  Returns the number of index entries moved.
        """
        old_id = str(old.tablet_id)
        self.tablets.pop(old_id, None)
        self.tablets[str(left.tablet_id)] = left
        self.tablets[str(right.tablet_id)] = right
        self._route_cache.pop(old.table, None)
        moved = 0
        for group in old.schema.group_names:
            old_index = self._indexes.pop((old_id, group), None)
            self._update_counters.pop((old_id, group), None)
            left_index = self._ensure_index(left.tablet_id, group)
            right_index = self._ensure_index(right.tablet_id, group)
            if old_index is None:
                continue
            for entry in old_index.entries():
                side = left_index if left.covers(entry.key) else right_index
                side.insert(entry.key, entry.timestamp, entry.pointer)
                moved += 1
            destroy = getattr(old_index, "destroy", None)
            if destroy is not None:
                destroy()
        old_heat = self.heat.pop(old_id, 0.0)
        left_share = self.ownership.split(old_id, left, right)
        self.heat[str(left.tablet_id)] = old_heat * left_share
        self.heat[str(right.tablet_id)] = old_heat * (1.0 - left_share)
        return moved

    def _ensure_index(self, tablet_id: TabletId | str, group: str) -> MultiversionIndex:
        key = (str(tablet_id), group)
        index = self._indexes.get(key)
        if index is None:
            index = self._new_index(tablet_id, group)
            self._indexes[key] = index
            self._update_counters[key] = 0
        return index

    def _new_index(self, tablet_id: TabletId, group: str) -> MultiversionIndex:
        if self.config.index_kind == "lsm":
            # Generations keep run paths of a rebuilt (post-compaction)
            # index from colliding with its predecessor's files.
            return LSMTreeIndex(
                self.dfs,
                self.machine,
                f"/logbase/{self.name}/lsm/g{self._index_generation}/{tablet_id}/{group}",
            )
        return BLinkTreeIndex()

    def _route(self, table: str, key: bytes) -> Tablet:
        router = self._route_cache.get(table)
        if router is None:
            router = self._route_cache[table] = TabletRouter(
                (t, t) for t in self.tablets.values() if t.table == table
            )
        tablet = router.find(key)
        if tablet is None:
            raise TabletNotFound(f"server {self.name} has no tablet for {table}:{key!r}")
        return tablet

    def index_for(self, table: str, key: bytes, group: str) -> MultiversionIndex:
        """The index responsible for (table, key, group) on this server."""
        tablet = self._route(table, key)
        return self._ensure_index(tablet.tablet_id, group)

    def indexes(self) -> dict[IndexKey, MultiversionIndex]:
        """All (tablet, group) indexes (checkpointing, diagnostics)."""
        return dict(self._indexes)

    # -- write path (§3.6.1) -------------------------------------------------------------

    def write(
        self,
        table: str,
        key: bytes,
        group_values: dict[str, bytes],
        *,
        timestamp: int | None = None,
        txn_id: int = 0,
    ) -> int:
        """Insert/update one record's column groups.

        The write is transformed into log records, persisted through the
        commit coordinator (a group of one when nothing is queued), and the
        per-group indexes are updated with the returned offsets.  Returns
        the version timestamp.
        """
        self._require_serving()
        with span(SPAN_TS_WRITE, self.machine, table=table):
            tablet_name, timestamp, records = self._stage_write(
                table, key, group_values, txn_id, timestamp
            )
            for pointer, record in self.commit.commit(records):
                self._apply_write(tablet_name, record, pointer)
            return timestamp

    def _stage_write(
        self,
        table: str,
        key: bytes,
        group_values: dict[str, bytes],
        txn_id: int,
        timestamp: int | None = None,
    ) -> tuple[str, int, list[LogRecord]]:
        """Route and gate one record's write, stamp it, and build its
        per-group log records (nothing is appended yet); returns the
        tablet's name, formatted once, with the timestamp and records."""
        tablet_name = self._check_tablet_serving(self._route(table, key))
        self._touch_heat(tablet_name, key)
        if timestamp is None:
            timestamp = self.tso.next_timestamp()
        # The lsn (0 here) is stamped at append.
        records = [
            new_record(
                RecordType.WRITE, 0, txn_id, table, tablet_name, key, group,
                timestamp, value,
            )
            for group, value in group_values.items()
        ]
        return tablet_name, timestamp, records

    def submit_write(
        self,
        table: str,
        key: bytes,
        group_values: dict[str, bytes],
        *,
        arrival: float | None = None,
        txn_id: int = 0,
    ):
        """Asynchronous write through the group-commit coordinator.

        The write joins (or leads) the open commit group and returns a
        :class:`~repro.wal.group_commit.CommitFuture` immediately; the
        per-group indexes are updated — and the write becomes visible to
        reads — only when the member's group reaches durability, at which
        point the future resolves with the appended pairs.  ``arrival``
        is the submission's virtual time (defaults to this server's
        clock).
        """
        self._require_serving()
        tablet_name, timestamp, records = self._stage_write(
            table, key, group_values, txn_id
        )

        def on_durable(appended):
            for pointer, record in appended:
                self._apply_write(tablet_name, record, pointer)

        if arrival is None:
            arrival = self.machine.clock.now
        return self.commit.submit(
            arrival, records, on_durable=on_durable, token=timestamp
        )

    def write_batch(
        self,
        table: str,
        items: list[tuple[bytes, dict[str, bytes]]],
        *,
        txn_id: int = 0,
    ) -> list[int]:
        """Insert/update many records with a single log append.

        Bulk-loading clients buffer puts and ship them in batches, so the
        whole batch pays one replication round trip; each record still
        gets its own version timestamp.  Returns the timestamps in item
        order.
        """
        self._require_serving()
        with span(SPAN_TS_WRITE_BATCH, self.machine, table=table, items=len(items)):
            records: list[LogRecord] = []
            names: list[str] = []  # routed once; reused in the apply loop
            timestamps: list[int] = []
            for key, group_values in items:
                tablet_name, timestamp, staged = self._stage_write(
                    table, key, group_values, txn_id
                )
                timestamps.append(timestamp)
                names.extend([tablet_name] * len(staged))
                records.extend(staged)
            appended = self.commit.commit(records)
            for (pointer, record), tablet_name in zip(appended, names):
                self._apply_write(tablet_name, record, pointer)
            return timestamps

    def append_transactional(
        self, records: list[LogRecord]
    ) -> list[tuple[LogPointer, LogRecord]]:
        """Persist a transaction's writes plus its commit record in one
        batch (§3.7.2), *without* touching the indexes.

        The transaction manager calls :meth:`apply_committed` afterwards;
        keeping the append separate from index application is what makes
        the commit record the visibility gate (Guarantee 3)."""
        self._require_serving()
        with span(SPAN_TS_APPEND_TXN, self.machine, records=len(records)):
            return self.commit.commit(records)

    def apply_committed(self, appended: list[tuple[LogPointer, LogRecord]]) -> None:
        """Reflect a committed transaction's writes and deletes into the
        indexes (called only after the commit record is durable)."""
        for pointer, record in appended:
            if record.record_type is RecordType.WRITE:
                tablet = self._route(record.table, record.key)
                self._apply_write(str(tablet.tablet_id), record, pointer)
            elif record.record_type is RecordType.INVALIDATE:
                tablet = self._route(record.table, record.key)
                index = self._ensure_index(tablet.tablet_id, record.group)
                index.delete_key(record.key)
                self.mark_deleted(
                    (record.table, record.group), (record.key, record.timestamp, pointer)
                )
                self.secondary.on_delete(record.table, record.group, record.key)
                if self.read_cache is not None:
                    self.read_cache.invalidate(record.table, record.group, record.key)

    def _apply_write(self, tablet_name: str, record: LogRecord, pointer: LogPointer) -> None:
        index = self._ensure_index(tablet_name, record.group)
        index.insert(record.key, record.timestamp, pointer)
        if self.read_cache is not None and record.value is not None:
            self.read_cache.put(
                record.table, record.group, record.key, record.timestamp, record.value
            )
        if record.value is not None and self.secondary.has_any():
            self.secondary.on_write(
                record.table, record.group, record.key, record.timestamp, record.value
            )
        self._bump_update_counter((tablet_name, record.group))

    def _bump_update_counter(self, index_key: IndexKey) -> None:
        self._update_counters[index_key] = self._update_counters.get(index_key, 0) + 1
        threshold = self.config.checkpoint_update_threshold
        if (
            threshold
            and self._update_counters[index_key] >= threshold
            and self._checkpoint_hook is not None
        ):
            self._update_counters[index_key] = 0
            self._checkpoint_hook(self)

    def set_checkpoint_hook(self, hook) -> None:
        """Install the callable invoked when an update counter trips
        (wired by :class:`~repro.core.checkpoint.CheckpointManager`)."""
        self._checkpoint_hook = hook

    # -- read path (§3.6.2) ----------------------------------------------------------------

    def read(
        self, table: str, key: bytes, group: str, *, as_of: int | None = None
    ) -> tuple[int, bytes] | None:
        """Get one record version.

        Returns ``(timestamp, value)`` of the latest version, or of the
        latest version at/before ``as_of`` for historical reads; None if
        the record does not exist (or is deleted).
        """
        self._require_serving()
        check_deadline("tablet read")
        with span(SPAN_TS_READ, self.machine, table=table, group=group):
            # Reject keys this server no longer owns.
            tablet_name = self._check_tablet_serving(self._route(table, key))
            self._touch_heat(tablet_name, key)
            if self.read_cache is not None:
                cached = self.read_cache.get(table, group, key)
                if cached is not None:
                    # The cache always holds the newest version (every write
                    # refreshes it), so it also answers a snapshot read whose
                    # timestamp is at or past that version: no newer version
                    # can be visible to the snapshot.
                    if as_of is None or cached[0] <= as_of:
                        return cached
            index = self._ensure_index(tablet_name, group)
            result = read_version(index, self.log.read, key, as_of)
            if result is not None and as_of is None and self.read_cache is not None:
                self.read_cache.put(table, group, key, *result)
            return result

    def read_version_timestamp(self, table: str, key: bytes, group: str) -> int | None:
        """Current version timestamp only (MVOCC validation, §3.7.1)."""
        self._require_serving()
        tablet_name = self._check_tablet_serving(self._route(table, key))
        entry = self._ensure_index(tablet_name, group).lookup_latest(key)
        return None if entry is None else entry.timestamp

    # -- delete path (§3.6.3) ----------------------------------------------------------------

    def delete(self, table: str, key: bytes, group: str, *, txn_id: int = 0) -> int:
        """Delete a record from a column group.

        Step 1 removes all index entries; step 2 persists an invalidated
        log entry (null Data) so the delete survives restarts whose
        checkpoint still contains the removed entries.
        """
        self._require_serving()
        with span(SPAN_TS_DELETE, self.machine, table=table, group=group):
            tablet_name = self._check_tablet_serving(self._route(table, key))
            self._touch_heat(tablet_name, key)
            timestamp = self.tso.next_timestamp()
            index = self._ensure_index(tablet_name, group)
            removed = index.delete_key(key)
            self.secondary.on_delete(table, group, key)
            marker = LogRecord(
                record_type=RecordType.INVALIDATE,
                txn_id=txn_id,
                table=table,
                tablet=tablet_name,
                key=key,
                group=group,
                timestamp=timestamp,
                value=None,
            )
            [(pointer, _)] = self.commit.commit([marker])
            self.mark_deleted((table, group), (key, timestamp, pointer))
            if self.read_cache is not None:
                self.read_cache.invalidate(table, group, key)
            return removed

    def mark_deleted(self, scope: tuple[str, str], row: Row) -> None:
        """Hold an applied delete's mark ``(key, timestamp, pointer)`` for
        the next checkpoint, until compaction retires the segment its
        INVALIDATE sits in (:meth:`_patch_indexes`)."""
        marks = self.delete_marks.setdefault(scope, {})
        held = marks.get(row[0])
        if held is None or held[1] < row[1]:
            marks[row[0]] = row

    # -- scans (§3.6.4) ---------------------------------------------------------------------

    def range_scan(
        self,
        table: str,
        group: str,
        start_key: bytes,
        end_key: bytes,
        *,
        as_of: int | None = None,
        require_coverage: bool = False,
    ):
        """Yield (key, timestamp, value) for the latest visible version of
        every key in [start_key, end_key) on this server.

        Walks the index in key order and follows each pointer into the
        log; before compaction those are scattered random reads, after
        compaction the pointers are clustered so consecutive reads become
        sequential — exactly the Figure 10 effect.

        Pointers are followed by :func:`~repro.core.tablet.live_rows`.

        A caller that routed the range here as one tablet's slice (the
        client) passes ``require_coverage``: the tablets hosted here must
        then jointly cover the range, or the scan answers
        :class:`TabletNotFound` before yielding anything — the tablet
        moved or split away since the caller cached its location, and an
        empty answer would silently drop its rows (the same check
        :meth:`follower_scan` makes).  Callers that sweep every server for
        "the rows on this server" leave it off.
        """
        self._require_serving()
        check_deadline("tablet range scan")
        hosted, covered = hosted_cover(self.tablets.values(), table, start_key, end_key)
        if require_coverage and not covered:
            raise TabletNotFound(
                f"server {self.name} does not host all of "
                f"{table}:[{start_key!r}, {end_key!r})"
            )
        for tablet in hosted:
            tablet_name = self._check_tablet_serving(tablet)
            self._touch_heat(tablet_name)
            index = self._ensure_index(tablet_name, group)
            entries = index.latest_in_range(start_key, end_key, as_of=as_of)
            yield from live_rows(self.log, entries, self.config.read_coalesce_gap)

    def full_scan(self, table: str, group: str):
        """Yield (key, timestamp, value) of current versions via a
        sequential pass over the log segments.

        "For each scanned record, the system checks its stored version
        with the current version maintained in the in-memory index to
        determine whether the record contains latest data" (§3.6.4).
        """
        self._require_serving()
        for file_no in self.log.segments():
            scope = self.log.segment_scope(file_no)
            if scope is not None and scope != (table, group):
                # Sorted segment holding a different (table, group):
                # the segment metadata map lets us skip it wholesale
                # (the §3.6.5 clustering payoff).
                continue
            for _, record in self.log.scan_segment(file_no):
                if (
                    record.record_type is not RecordType.WRITE
                    or record.table != table
                    or record.group != group
                    or record.value is None
                ):
                    continue
                try:
                    index = self.index_for(table, record.key, group)
                except TabletNotFound:
                    continue
                latest = index.lookup_latest(record.key)
                if latest is not None and latest.timestamp == record.timestamp:
                    yield record.key, record.timestamp, record.value

    # -- compaction (§3.6.5) --------------------------------------------------------------------

    def compact(self, *, retain_after: int | None = None) -> CompactionResult:
        """Run one size-tiered compaction round: execute the planner's
        per-run plans, re-pointing the indexes of the (table, group)
        scopes each rewrote after it (:meth:`_patch_indexes`).

        Plans install one at a time (each guarded by its own
        ``CP_COMPACTION_MID`` crash point), and one checkpoint follows the
        round.  Until it is installed, the log holds back the files of the
        segments the round retired, which the live checkpoint may still
        reach (:meth:`LogRepository.hold`).

        Args:
            retain_after: optional retention cutoff — historical versions
                older than this timestamp are expired (each key's newest
                version always survives).
        """
        self._require_serving()
        # Server-driven maintenance may start a trace of its own on a
        # traced machine; inside a traced client op it nests.
        with root_span(SPAN_COMPACTION_ROUND, self.machine, server=self.name):
            inputs = self.log.segments()
            self.log.roll()
            combined = CompactionResult()
            for plan in self.planner.plan(inputs):
                with span(SPAN_COMPACTION_PLAN, self.machine, kind=plan.kind):
                    result = IncrementalCompactionJob(
                        self.log,
                        plan,
                        self.config.max_versions,
                        owned=self._owned,
                        retain_after=retain_after,
                    ).run()
                    self._patch_indexes(result)
                    combined.merge(result)
            if combined.retired_segments and self._checkpoint_hook is not None:
                self._checkpoint_hook(self)
            return combined

    def _owned(self, table: str, key: bytes) -> bool:
        """Whether this server hosts a tablet covering (table, key).
        Compaction drops records that fail it: they belong to tablets
        moved away by a rebalance or failover, whose new owner re-homed
        them into its own log at adoption time."""
        try:
            return self._route(table, key) is not None
        except TabletNotFound:
            return False

    def _patch_indexes(self, result: CompactionResult) -> None:
        """Point the indexes of the scopes one plan rewrote at its output.

        The live index is authoritative: a version it lacks was deleted
        after it was logged (a merge plan cannot see a delete marker still
        in the unsorted tail) and must not come back.  A B-link index is
        re-pointed in place (:meth:`MultiversionIndex.repoint`); an LSM
        index is rebuilt by the same rule into a new generation; a tablet
        with no index yet takes the plan's entries it covers.
        """
        retired = set(result.retired_segments)
        # A retired INVALIDATE's mark is now a run's tombstone, or died
        # with every version it shadowed.
        for marks in self.delete_marks.values():
            for key in [k for k, row in marks.items() if row[2].file_no in retired]:
                del marks[key]
        # One generation bump per plan keeps a round's rebuilt LSM roots
        # (e.g. a merge plan and the tail plan touching the same scope)
        # from colliding on run paths.
        self._index_generation += 1
        for (table, group), entries in sorted(result.index_entries.items()):
            moved = {(key, timestamp): pointer for key, timestamp, pointer in entries}
            for tablet in self.tablets.values():
                if tablet.table != table or group not in tablet.schema.group_names:
                    continue
                index_key = (str(tablet.tablet_id), group)
                old = self._indexes.get(index_key)
                if old is not None and self.config.index_kind == "blink":
                    old.repoint(moved, retired)
                    continue
                fresh = self._new_index(tablet.tablet_id, group)
                if old is None:
                    for key, timestamp, pointer in entries:
                        if tablet.covers(key):
                            fresh.insert(key, timestamp, pointer)
                else:
                    for entry in old.entries():
                        pointer = moved.get((entry.key, entry.timestamp))
                        if pointer is None and entry.pointer.file_no not in retired:
                            pointer = entry.pointer
                        if pointer is not None:
                            fresh.insert(entry.key, entry.timestamp, pointer)
                    old.destroy()
                self._indexes[index_key] = fresh
                self._update_counters.setdefault(index_key, 0)

    # -- secondary indexes (the paper's future-work extension) ------------------------------------

    def create_secondary_index(self, table: str, group: str, column: str):
        """Register a secondary index on ``table.column`` and backfill it
        from the current versions already on this server."""
        index = self.secondary.create(table, group, column)
        self.rebuild_secondary_indexes(only=index)
        return index

    def rebuild_secondary_indexes(self, only=None) -> int:
        """Rebuild secondary indexes from the primary indexes + log.

        Called after recovery (the redo path feeds primary indexes
        directly) or to backfill a newly created index.  Returns the
        number of entries fed."""
        targets = [only] if only is not None else self.secondary.indexes()
        fed = 0
        for index in targets:
            index.clear()
            for (tablet_id, group), primary in self._indexes.items():
                tablet = self.tablets.get(tablet_id)
                if tablet is None or tablet.table != index.table or group != index.group:
                    continue
                entries = primary.latest_in_range(b"", b"\xff" * 64)
                rows = live_rows(self.log, entries, self.config.read_coalesce_gap)
                for key, timestamp, value in rows:
                    self.secondary.on_write(index.table, group, key, timestamp, value)
                    fed += 1
        return fed

    # -- accounting ------------------------------------------------------------------------------

    def index_memory_bytes(self) -> int:
        """Total resident index memory on this server."""
        return sum(index.memory_bytes() for index in self._indexes.values())

    def data_bytes(self) -> int:
        """Total live log bytes this server has written."""
        return self.log.total_bytes()
