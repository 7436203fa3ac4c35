"""Log-shipping read replicas (Taurus-style, over the shared log).

LogBase already replicates every log segment through the DFS; a follower
therefore needs no owner involvement to reconstruct a tablet's state — it
tails the owner's segment files straight from the DFS on its *own*
machine (charging its own clock and warming its own block cache), replays
them into a private :class:`MultiversionIndex` per column group, and
serves bounded-staleness reads.

:class:`ReplicaHost` holds every replica one tablet server hosts, a
:class:`FollowerTablet` per tablet and a :class:`LogTailer` per owner,
shared by that owner's tablets because it keeps *a single log* (§3.4).

Tailing protocol.  A tailer reads the owner's log with the reader a
restarting owner redoes it with, one :class:`~repro.wal.replay.LogCursor`
per subscription: unsorted frames through its commit gate, and a run —
live versions under *new* pointers and re-emitted tombstones, nothing new —
as the ~30-byte rows of its index (:func:`~repro.wal.replay.redo_rows`):
told what moved, Taurus-style, not re-deriving it.  A run index that is
missing or fails its checksum fails the pass like any unreadable file.

A read that chases a pointer into a segment the owner retired between
tail passes raises :class:`FollowerLaggingError`; the client falls back
to the owner and the next tail pass heals the pointer from the index of
the run that replaced it.  What a *drained* pass leaves pointing at a file
the owner no longer lists was retired without being re-homed: a deleted
version whose tombstone the plan dropped with it (:meth:`LogTailer.drop_dead`).
"""

from __future__ import annotations

from functools import partial
from typing import Collection, Iterable

from repro.config import LogBaseConfig
from repro.core.tablet import Tablet, TabletRouter, hosted_cover, live_rows, read_version
from repro.dfs.filesystem import DFS
from repro.errors import CorruptLogRecord, DFSError, FollowerLaggingError, InvalidLogPointer
from repro.index.blink import BLinkTreeIndex
from repro.index.interface import IndexEntry, MultiversionIndex, Row
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
from repro.wal.record import LogPointer, LogRecord
from repro.wal.replay import LogCursor, keep_versions, redo, redo_rows
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
        caught_up_ts: the highest commit timestamp that pass let through:
            every write at or below it is visible here (``watermark`` is not).
    """

    def __init__(self, tablet: Tablet, owner_name: str, epoch: int) -> None:
        self.tablet = tablet
        self.owner_name = owner_name
        self.epoch = epoch
        self.watermark = self.caught_up_ts = 0
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


def _route_by_table(members: Collection[FollowerTablet]) -> dict[str, TabletRouter]:
    """One router per table over ``members``' tablets."""
    return {
        table: TabletRouter((m.tablet, m) for m in members if m.tablet.table == table)
        for table in {m.tablet.table for m in members}
    }


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
        self._routes: dict[str, TabletRouter] = {}  # table -> members by range
        self._cursor = LogCursor(self.repo)  # the subscription's reader
        self._drained = False  # the last pass read everything ``repo`` lists

    # -- membership -----------------------------------------------------------

    def subscribe(self, follower: FollowerTablet) -> None:
        """Add a replica and read the log again from the start with a new
        cursor, which is how a replica created mid-stream sees what the
        old one passed (insert replaces at (key, timestamp), so existing
        members take the replay idempotently).  Every member stops serving
        until it drains: a bounded replay can re-insert a WRITE whose
        INVALIDATE only lands in a later pass."""
        self.members[str(follower.tablet.tablet_id)] = follower
        self._routes = _route_by_table(self.members.values())
        for member in self.members.values():
            member.caught_up_at = None
        self._cursor = LogCursor(self.repo)
        self._drained = False

    def unsubscribe(self, tablet_id: str) -> None:
        """Drop a replica (teardown on ownership change or re-placement)."""
        self.members.pop(str(tablet_id), None)
        self._routes = _route_by_table(self.members.values())

    # -- tailing ---------------------------------------------------------------

    def tail(self, batch_limit: int) -> tuple[int, bool]:
        """One tail pass: apply up to ``batch_limit`` new log records.

        Returns ``(applied, drained)`` where ``drained`` means the pass
        consumed everything the owner's log currently holds — only then do
        the members' ``caught_up_at`` and watermarks advance, because
        bounded staleness promises a complete prefix, not a sample.
        """
        with span(SPAN_FOLLOWER_TAIL, self._machine, owner=self.owner_name):
            cursor, self._drained = self._cursor, False
            applied = cursor.applied
            try:
                self.repo.refresh_from_dfs()
                if cursor.read(self._redo, self._rows, limit=batch_limit):
                    now = self._machine.clock.now
                    for member in self.members.values():
                        member.watermark = max(member.watermark, cursor.gate.watermark)
                        member.caught_up_ts = max(member.caught_up_ts, cursor.gate.watermark)
                        member.caught_up_at = now
                    self._drained = True
            finally:
                # Also when a read fails mid-pass: what was applied stays applied.
                applied = cursor.applied - applied
                if applied:
                    self._machine.counters.add(REPLICA_LAG_RECORDS, applied)
                    self._machine.counters.add(REPLICA_TAIL_BATCHES)
            return applied, self._drained

    def _rows(self, scope: tuple[str, str], rows: list[Row], marks: int) -> int:
        """Apply a run's index rows through the loader every reader of a
        persisted index uses (:func:`~repro.wal.replay.redo_rows`)."""
        index_of = partial(self._index_of, *scope)
        return redo_rows(scope, rows, marks, index_of, self._cursor.tombstones)

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
        router = self._routes.get(table)
        return None if router is None else router.find(key)

    def _redo(self, pointer: LogPointer, record: LogRecord) -> bool:
        """Redo one effective record into the member covering its key."""
        index = self._index_of(record.table, record.group, record.key, record.timestamp)
        return redo(index, pointer, record, self._cursor.tombstones)

    def _index_of(self, table: str, group: str, key: bytes, timestamp: int):
        """The index of the member covering ``key``, whose watermark the
        version moves; None if no member covers it."""
        member = self._member(table, key)
        if member is None:
            return None
        if timestamp > member.watermark:
            member.watermark = timestamp
        return member.index(group)


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
        self._routes: dict[str, TabletRouter] = {}  # table -> followers by range

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
        self._routes = _route_by_table(self.followers.values())
        tailer.subscribe(follower)
        return follower

    def unfollow(self, tablet_id) -> None:
        """Tear down the replica of one tablet (ownership changed, the
        placement moved it elsewhere, or this server was promoted)."""
        follower = self.followers.pop(str(tablet_id), None)
        if follower is None:
            return
        self._routes = _route_by_table(self.followers.values())
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
                # This server cannot read that owner's log right now.  The
                # tailer keeps its cursor; its replicas, not marked caught
                # up, age out of their bound and reads fall back to the
                # owner.  Raising would end the heartbeat this runs inside.
                machine.counters.add(REPLICA_TAIL_ERRORS)
        return lags

    def read(self, table, key, group, as_of, max_staleness, floor) -> tuple[int, bytes] | None:
        """The body of ``TabletServer.follower_read``."""
        follower = self._follower_for(table, key)
        self._check_serving(follower, as_of, max_staleness, floor)
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

    def scan(self, table, group, start_key, end_key, as_of, max_staleness, floor) -> list[tuple]:
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
            self._check_serving(follower, as_of, max_staleness, floor)
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
        router = self._routes.get(table)
        if router is not None and (follower := router.find(key)) is not None:
            return follower
        raise self._redirect(
            f"{self._server.name} hosts no replica covering {table}:{key!r}"
        )

    def _check_serving(self, follower: FollowerTablet, as_of, max_staleness, floor) -> None:
        """The follower-mode op gate: a replica serves only inside its
        staleness bound, and only a client that has seen nothing newer
        than its last drained pass (``floor``: read-your-writes)."""
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
        if floor > follower.caught_up_ts:
            raise self._redirect(
                f"replica of {follower.tablet.tablet_id} on {server.name} is "
                f"caught up to {follower.caught_up_ts} < the client's floor {floor}"
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
