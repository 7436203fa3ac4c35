"""Log-shipping read replicas (Taurus-style, over the shared log).

LogBase already replicates every log segment through the DFS; a follower
therefore needs no owner involvement to reconstruct a tablet's state — it
tails the owner's segment files straight from the DFS on its *own*
machine (charging its own clock and warming its own block cache), replays
them into a private :class:`MultiversionIndex` per column group, and
serves bounded-staleness reads.

Three classes:

* :class:`ReplicaHost` — every replica one tablet server hosts: its
  tailers, the tail pass, and the staleness-gated replica read and scan.
* :class:`FollowerTablet` — the replica of one tablet on one non-owner
  server: per-group indexes, the replication watermark (highest applied
  version/commit timestamp), and ``caught_up_at`` (the follower-clock
  instant of the last fully drained tail pass, which is what bounded
  staleness is judged against).
* :class:`LogTailer` — one per (follower server, owner) pair, shared by
  every FollowerTablet that server hosts for that owner, because the
  owner keeps *a single log instance* for all its tablets (§3.4): one
  tail pass feeds them all.

Tailing protocol.  The owner's log is an append stream of unsorted
``segment-*.log`` files plus compaction-produced ``sorted-*.log`` files
(slim layout, old data re-emitted in key order).  Step 1: the tailer
keeps a byte cursor over the unsorted stream — segment N+1 is only
created after N closed, so once a higher unsorted segment exists the
lower one is immutable — and decodes what lies past it.  Step 2: a sorted
run holds nothing new, only live versions under *new* pointers (the
originals are about to be retired, so the follower's index entries would
dangle) and re-emitted tombstones, and its writer left exactly that list
beside it (:func:`repro.index.persist.encode_run_index`).  So the tailer
never reads a run: once ``segments.meta`` names one it loads the run's
index, once, and re-points each member's index in one walk over its
~30-byte rows — told what moved, Taurus-style, not re-deriving it.  An
index that is missing or fails its checksum fails the pass like any
unreadable file: nothing is marked caught up and reads age out to the
owner.  Both steps feed recovery's redo (:mod:`repro.wal.replay`): one
commit gate and one tombstone map per tailer, both living as long as the
subscription.  ``insert`` replaces at (key, timestamp), so replay is
idempotent — a fresh subscriber simply resets the cursor and the whole
stream replays.

A read that chases a pointer into a segment the owner retired between
tail passes raises :class:`FollowerLaggingError`; the client falls back
to the owner and the next tail pass heals the pointer from the index of
the run that replaced it.  What a *drained* pass leaves pointing at a file
the owner no longer lists was retired without being re-homed: a deleted
version whose tombstone the plan dropped with it (:meth:`LogTailer.drop_dead`).
"""

from __future__ import annotations

from typing import Iterable

from repro.config import LogBaseConfig
from repro.core.tablet import Tablet, hosted_cover, live_rows, read_version
from repro.dfs.filesystem import DFS
from repro.errors import CorruptLogRecord, DFSError, FollowerLaggingError, InvalidLogPointer
from repro.index.blink import BLinkTreeIndex
from repro.index.interface import IndexEntry, MultiversionIndex, Row
from repro.index.persist import decode_run_index
from repro.obs.trace import span
from repro.sim.machine import Machine
from repro.sim.metrics import (
    REPLICA_LAG_RECORDS,
    REPLICA_READS_SERVED,
    REPLICA_REDIRECTS,
    REPLICA_TAIL_BATCHES,
    REPLICA_TAIL_ERRORS,
    SPAN_FOLLOWER_TAIL,
)
from repro.wal.record import LogPointer, LogRecord, RecordType
from repro.wal.replay import CommitGate, Tombstones, keep_versions, redo
from repro.wal.repository import LogRepository

# Max log records a follower applies per tail pass (bounds one heartbeat's
# catch-up work; lag beyond it is worked off over subsequent passes).
REPLICA_TAIL_BATCH = 512


class FollowerTablet:
    """Read-only replica of one tablet on a non-owner server.

    Attributes:
        tablet: the tablet being replicated.
        owner_name: the tablet server whose log is being tailed.
        epoch: the tablet's ownership epoch this subscription was created
            under (``SharedCatalog.owner_epochs``).  A handoff bumps it,
            so a follower of the deposed owner is torn down and
            re-pointed rather than silently applying the old owner's
            post-fence records.
        watermark: highest version/commit timestamp applied to this
            replica.  A follower read never returns data newer than this.
        caught_up_at: follower-clock instant of the last tail pass that
            fully drained the owner's log (None until the first one).
            Bounded staleness is ``now - caught_up_at``: everything the
            owner committed before that instant is visible here.
    """

    def __init__(self, tablet: Tablet, owner_name: str, epoch: int) -> None:
        self.tablet = tablet
        self.owner_name = owner_name
        self.epoch = epoch
        self.watermark = 0
        self.caught_up_at: float | None = None
        self._indexes: dict[str, MultiversionIndex] = {
            group: BLinkTreeIndex() for group in tablet.schema.group_names
        }

    def index(self, group: str) -> MultiversionIndex:
        """The replica index for one column group."""
        index = self._indexes.get(group)
        if index is None:
            index = BLinkTreeIndex()
            self._indexes[group] = index
        return index

    def lag(self, now: float) -> float:
        """Seconds of staleness at ``now`` (inf before the first drain)."""
        if self.caught_up_at is None:
            return float("inf")
        return max(0.0, now - self.caught_up_at)

    def entry_count(self) -> int:
        """Total index entries across groups (stats/diagnostics)."""
        return sum(len(index) for index in self._indexes.values())


class LogTailer:
    """Tails one owner's log directory for all of a server's followers.

    The tailer owns a read-only :class:`LogRepository` handle reattached
    over the owner's log root on the *follower's* machine: every byte
    scanned and every pointer chased is charged to the follower's clock
    and cached in the follower's block cache — the owner is never
    involved (the whole point of log-shipping replicas).
    """

    def __init__(
        self, dfs: DFS, machine: Machine, owner_name: str, config: LogBaseConfig
    ) -> None:
        self.owner_name = owner_name
        self._machine = machine
        self.repo = LogRepository.reattach(
            dfs,
            machine,
            f"/logbase/{owner_name}/log",
            config.segment_size,
            coalesce_gap=config.read_coalesce_gap,
            scan_prefetch=config.scan_prefetch_bytes,
        )
        self.members: dict[str, FollowerTablet] = {}  # tablet id -> replica
        # Byte cursor over the unsorted append stream: next record starts
        # at offset `_cursor[1]` of segment `_cursor[0]`.
        self._cursor: tuple[int, int] = (0, 0)
        # The entries of a sorted run's index a bounded pass has not
        # reached yet, and the set of runs fully consumed.
        self._sorted_progress: dict[int, tuple[list[Row], int]] = {}
        self._sorted_done: set[int] = set()
        # Whether the last pass consumed everything ``repo`` lists.
        self._drained = False
        # The redo state of the stream.  The gate's watermark — the
        # highest commit timestamp it let through — is synced into every
        # member's on a fully drained pass.
        self._gate = CommitGate(self._redo)
        self._tombstones: Tombstones = {}

    # -- membership -----------------------------------------------------------

    def subscribe(self, follower: FollowerTablet) -> None:
        """Add a replica and restart the stream from the beginning.

        Replay is idempotent for existing members (insert replaces at
        (key, timestamp); the tombstone map is rebuilt as the stream
        re-delivers the same markers), and the reset is what lets a
        replica created mid-stream see records the shared cursor already
        passed.  Every member — not just the new one — stops serving
        until the re-replay fully drains: the batch-bounded re-replay can
        transiently re-insert a WRITE whose shadowing INVALIDATE only
        lands in a later pass, and a member still judged fresh from its
        pre-reset drain would serve that resurrected deleted version."""
        self.members[str(follower.tablet.tablet_id)] = follower
        for member in self.members.values():
            member.caught_up_at = None
        self._cursor = (0, 0)
        self._sorted_progress.clear()
        self._sorted_done.clear()
        self._drained = False
        self._gate = CommitGate(self._redo)
        self._tombstones.clear()

    def unsubscribe(self, tablet_id: str) -> None:
        """Drop a replica (teardown on ownership change or re-placement)."""
        self.members.pop(str(tablet_id), None)

    # -- tailing ---------------------------------------------------------------

    def tail(self, batch_limit: int) -> tuple[int, bool]:
        """One tail pass: apply up to ``batch_limit`` new log records.

        Returns ``(applied, drained)`` where ``drained`` means the pass
        consumed everything the owner's log currently holds — only then do
        the members' ``caught_up_at`` (and watermark, via the stream
        watermark) advance, because bounded staleness promises a complete
        prefix, not a sample.
        """
        with span(SPAN_FOLLOWER_TAIL, self._machine, owner=self.owner_name):
            applied = 0
            feed = self._gate.feed
            self._drained = False
            try:
                self.repo.refresh_from_dfs()
                scanned = 0
                drained = True
                unsorted: list[int] = []
                sorted_segs: list[int] = []
                for file_no in self.repo.segments():
                    name = self.repo.segment_path(file_no).rsplit("/", 1)[-1]
                    (sorted_segs if name.startswith("sorted-") else unsorted).append(
                        file_no
                    )
                # Sorted segments retired by a later compaction round drop out
                # of the bookkeeping with them.
                live_sorted = set(sorted_segs)
                self._sorted_done &= live_sorted
                for gone in [n for n in self._sorted_progress if n not in live_sorted]:
                    del self._sorted_progress[gone]

                # 1. The unsorted append stream, in file order from the cursor.
                cursor_file, cursor_offset = self._cursor
                stream = [n for n in unsorted if n > cursor_file]
                if cursor_file in unsorted:
                    stream.insert(0, cursor_file)
                for file_no in stream:
                    start = cursor_offset if file_no == cursor_file else 0
                    for pointer, record in self.repo.scan_segment(
                        file_no, start_offset=start
                    ):
                        if scanned >= batch_limit:
                            drained = False
                            break
                        scanned += 1
                        applied += feed(pointer, record)
                        self._cursor = (file_no, pointer.offset + pointer.size)
                    if not drained:
                        break

                # 2. Sorted runs, each consumed exactly once as the map names
                # it: new pointers for data whose original segments are
                # being retired, plus re-emitted tombstones, read off the
                # run's index.  Their content is already committed, so the
                # entries apply directly.
                if drained:
                    for file_no in sorted_segs:
                        if file_no in self._sorted_done:
                            continue
                        progress = self._sorted_progress.pop(file_no, None)
                        entries, marks = progress or self._run_entries(file_no)
                        take = batch_limit - scanned
                        applied += self._rehome(
                            self.repo.segment_scope(file_no), entries[:take], marks
                        )
                        if take < len(entries):
                            self._sorted_progress[file_no] = (
                                entries[take:], max(0, marks - take)
                            )
                            drained = False
                            break
                        scanned += len(entries)
                        self._sorted_done.add(file_no)

                if drained:
                    now = self._machine.clock.now
                    for member in self.members.values():
                        member.watermark = max(member.watermark, self._gate.watermark)
                        member.caught_up_at = now
                    self._drained = True
            finally:
                # Also when a read fails mid-pass: what was applied stays applied.
                if applied:
                    self._machine.counters.add(REPLICA_LAG_RECORDS, applied)
                    self._machine.counters.add(REPLICA_TAIL_BATCHES)
            return applied, drained

    def _run_entries(self, file_no: int) -> tuple[list[Row], int]:
        """A named run's index rows, tombstones first, and their count."""
        try:
            versions, tombstones = decode_run_index(self.repo.read_run_index(file_no))
        except CorruptLogRecord:
            payload = self.repo.read_run_index(file_no, verified=True)
            versions, tombstones = decode_run_index(payload)
        return tombstones + versions, len(tombstones)

    def _rehome(self, scope: tuple[str, str], rows: list[Row], marks: int) -> int:
        """Apply run-index rows, the first ``marks`` of them tombstones (fed
        to the gate); returns what the gate would count.  A version moves
        the watermarks, is skipped at or below its key's delete mark, and is
        re-pointed in one walk of its member's index, or redone if absent."""
        table, group = scope

        def record(kind: RecordType, key: bytes, timestamp: int) -> LogRecord:
            return LogRecord(
                kind, table=table, key=key, group=group, timestamp=timestamp
            )

        gate, applied = self._gate, 0
        moved: dict[FollowerTablet, dict[tuple[bytes, int], LogPointer]] = {}
        for i, (key, timestamp, pointer) in enumerate(rows):
            if i < marks:
                marker = record(RecordType.INVALIDATE, key, timestamp)
                applied += gate.feed(pointer, marker, True)
                continue
            gate.watermark = max(gate.watermark, timestamp)
            member = self._member(table, key)
            if member is not None:
                member.watermark = max(member.watermark, timestamp)
                if self._tombstones.get((table, group, key), -1) < timestamp:
                    moved.setdefault(member, {})[key, timestamp] = pointer
                    applied += 1
        for member, versions in moved.items():
            index = member.index(group)
            index.repoint(versions, ())
            for (key, timestamp), pointer in versions.items():
                version = record(RecordType.WRITE, key, timestamp)
                redo(index, pointer, version, self._tombstones)
        return applied

    def drop_dead(
        self, index: MultiversionIndex, entries: Iterable[IndexEntry]
    ) -> list[IndexEntry]:
        """``entries`` of a member's ``index`` minus those naming a dead
        version, which leave the index too.

        Judged only after a fully drained pass, run indexes included:
        every live version was then re-pointed into a file the refreshed
        handle lists, so an entry still naming a file it does not list was
        retired without being re-homed — the owner's plan dropped the
        version, and the tombstone that would have said so, together.  A
        file still listed that cannot be read is a lagging replica, not a
        dead version, and so is anything before the pass drains."""
        entries = list(entries)  # the drops below restructure the index
        if not self._drained:
            return entries
        def listed(entry: IndexEntry) -> bool:
            return self.repo.has_segment(entry.pointer.file_no)

        live = []
        for entry in entries:
            if listed(entry):
                live.append(entry)
            else:
                keep_versions(index, entry.key, listed)
        return live

    def _member(self, table: str, key: bytes) -> FollowerTablet | None:
        """The member replicating ``(table, key)``, if any."""
        for member in self.members.values():
            if member.tablet.table == table and member.tablet.covers(key):
                return member
        return None

    def _redo(self, pointer: LogPointer, record: LogRecord) -> bool:
        """Redo one effective record into the member covering its key."""
        index = None
        member = self._member(record.table, record.key)
        if member is not None:
            if record.timestamp > member.watermark:
                member.watermark = record.timestamp
            index = member.index(record.group)
        return redo(index, pointer, record, self._tombstones)


class ReplicaHost:
    """The read replicas one tablet server hosts for tablets it does NOT
    own: ``followers`` by tablet id, and one ``tailers`` entry per owner,
    shared because an owner keeps a single log for all its tablets.  Both
    stay empty — and cost nothing — until the placement subscribes the
    server, whose follower entry points check it is up, then delegate here.
    """

    def __init__(self, server) -> None:
        self._server = server
        self.followers: dict[str, FollowerTablet] = {}
        self.tailers: dict[str, LogTailer] = {}

    def follow(self, tablet: Tablet, owner_name: str, epoch: int) -> FollowerTablet:
        """Host a read replica of ``tablet``, tailing ``owner_name``'s log.

        Idempotent for an unchanged (owner, epoch): the heartbeat calls
        this every pass.  A changed owner or a bumped ownership epoch tears
        the old replica down and starts a fresh one — a follower must
        never keep applying a deposed owner's post-fence records.
        """
        server = self._server
        server._require_serving()
        tablet_id = str(tablet.tablet_id)
        existing = self.followers.get(tablet_id)
        if existing is not None:
            if (existing.owner_name, existing.epoch) == (owner_name, epoch):
                return existing
            self.unfollow(tablet_id)
        tailer = self.tailers.get(owner_name)
        if tailer is None:
            tailer = LogTailer(server.dfs, server.machine, owner_name, server.config)
            self.tailers[owner_name] = tailer
        follower = self.followers[tablet_id] = FollowerTablet(tablet, owner_name, epoch)
        tailer.subscribe(follower)
        return follower

    def unfollow(self, tablet_id) -> None:
        """Tear down the replica of one tablet (ownership changed, the
        placement moved it elsewhere, or this server was promoted)."""
        follower = self.followers.pop(str(tablet_id), None)
        if follower is None:
            return
        tailer = self.tailers.get(follower.owner_name)
        if tailer is not None:
            tailer.unsubscribe(str(tablet_id))
            if not tailer.members:
                del self.tailers[follower.owner_name]

    def tail(self) -> dict[str, float]:
        """The body of ``TabletServer.tail_followed_logs``."""
        machine = self._server.machine
        lags = {tid: f.lag(machine.clock.now) for tid, f in self.followers.items()}
        for tailer in self.tailers.values():
            try:
                tailer.tail(REPLICA_TAIL_BATCH)
            except (DFSError, CorruptLogRecord):
                # This server cannot read that owner's log right now (it is
                # partitioned from every replica, say, or a run's index
                # fails its checksum).  The tailer keeps its cursor and
                # tries again next tick; its replicas were not marked caught
                # up, so they age out of their staleness bound and reads
                # fall back to the owner.  Raising instead would end the
                # cluster heartbeat this pass runs inside.
                machine.counters.add(REPLICA_TAIL_ERRORS)
        return lags

    def read(self, table, key, group, as_of, max_staleness) -> tuple[int, bytes] | None:
        """The body of ``TabletServer.follower_read``."""
        follower = self._follower_for(table, key)
        self._check_serving(follower, as_of, max_staleness)
        index = follower.index(group)
        tailer = self.tailers[follower.owner_name]
        try:
            result = read_version(
                index, tailer.repo.read, key, as_of,
                live=lambda entry: tailer.drop_dead(index, [entry]),
            )
        except (InvalidLogPointer, DFSError) as exc:
            raise self._retired(follower, exc) from exc
        self._server.machine.counters.add(REPLICA_READS_SERVED)
        return result

    def scan(self, table, group, start_key, end_key, as_of, max_staleness) -> list[tuple]:
        """The body of ``TabletServer.follower_scan``."""
        server = self._server
        followed, covered = hosted_cover(
            (
                f.tablet for f in self.followers.values()
                if f.tablet.key_range.start < end_key
                and (f.tablet.key_range.end is None or f.tablet.key_range.end > start_key)
            ),
            table, start_key, end_key,
        )
        # The hosted replicas must jointly cover the range, as
        # _follower_for's check does for a key.  A client with a stale
        # follower route (placement rotates on live-set or split changes)
        # can land on a server hosting only *other* tablets of the table —
        # an empty result would silently drop the target tablet's rows, so
        # raise and let the client fall back to the owner instead.
        if not covered:
            raise self._redirect(
                f"{server.name} hosts no replica covering "
                f"{table}:[{start_key!r}, {end_key!r})"
            )
        rows: list[tuple[bytes, int, bytes]] = []
        coalesce_gap = server.config.read_coalesce_gap
        for tablet in followed:
            follower = self.followers[str(tablet.tablet_id)]
            self._check_serving(follower, as_of, max_staleness)
            tailer = self.tailers[follower.owner_name]
            index = follower.index(group)
            entries = tailer.drop_dead(
                index, index.latest_in_range(start_key, end_key, as_of=as_of)
            )
            try:
                rows.extend(live_rows(tailer.repo, entries, coalesce_gap))
            except (InvalidLogPointer, DFSError) as exc:
                raise self._retired(follower, exc) from exc
        server.machine.counters.add(REPLICA_READS_SERVED)
        return rows

    def _follower_for(self, table: str, key: bytes) -> FollowerTablet:
        for follower in self.followers.values():
            if follower.tablet.table == table and follower.tablet.covers(key):
                return follower
        raise self._redirect(
            f"{self._server.name} hosts no replica covering {table}:{key!r}"
        )

    def _check_serving(self, follower: FollowerTablet, as_of, max_staleness) -> None:
        """The follower-mode op gate: a replica serves only inside its
        staleness bound."""
        server = self._server
        limit = max_staleness
        if limit is None:
            limit = server.config.replica_max_staleness
        lag = follower.lag(server.machine.clock.now)
        if lag > limit:
            raise self._redirect(
                f"replica of {follower.tablet.tablet_id} on {server.name} is "
                f"{lag:.3f}s stale (bound {limit:.3f}s)"
            )
        if as_of is not None and as_of > follower.watermark:
            raise self._redirect(
                f"replica of {follower.tablet.tablet_id} on {server.name} has "
                f"watermark {follower.watermark} < as_of {as_of}"
            )

    def _retired(self, follower: FollowerTablet, exc: Exception) -> FollowerLaggingError:
        """The owner compacted a position away between tail passes; the
        next pass re-points the entry at the sorted segment that replaced it."""
        return self._redirect(
            f"replica of {follower.tablet.tablet_id} on {self._server.name}: "
            f"log position retired by the owner ({exc})"
        )

    def _redirect(self, message: str) -> FollowerLaggingError:
        """Count a redirect to the owner and build its retryable error."""
        self._server.machine.counters.add(REPLICA_REDIRECTS)
        return FollowerLaggingError(message)
