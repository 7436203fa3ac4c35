"""Log-shipping read replicas (Taurus-style, over the shared log).

LogBase already replicates every log segment through the DFS; a follower
therefore needs no owner involvement to reconstruct a tablet's state — it
tails the owner's segment files straight from the DFS on its *own*
machine (charging its own clock and warming its own block cache), replays
them into a private :class:`MultiversionIndex` per column group, and
serves bounded-staleness reads.

Two classes:

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
index, once, and re-homes its pointers from the ~30-byte entries — told
what moved, Taurus-style, instead of re-deriving it from 1 KB values.  An
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
from repro.core.tablet import Tablet
from repro.dfs.filesystem import DFS
from repro.index.blink import BLinkTreeIndex
from repro.index.interface import IndexEntry, MultiversionIndex
from repro.index.persist import decode_run_index
from repro.obs.trace import span
from repro.sim.machine import Machine
from repro.sim.metrics import (
    REPLICA_LAG_RECORDS,
    REPLICA_TAIL_BATCHES,
    SPAN_FOLLOWER_TAIL,
)
from repro.wal.record import LogPointer, LogRecord, RecordType
from repro.wal.replay import CommitGate, Tombstones, keep_versions, redo
from repro.wal.repository import LogRepository


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
        self._sorted_progress: dict[int, list[tuple[LogPointer, LogRecord]]] = {}
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
                        entries = self._sorted_progress.pop(file_no, None)
                        if entries is None:
                            entries = self._run_entries(file_no)
                        take = batch_limit - scanned
                        for pointer, record in entries[:take]:
                            applied += feed(pointer, record, True)
                        if take < len(entries):
                            self._sorted_progress[file_no] = entries[take:]
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

    def _run_entries(self, file_no: int) -> list[tuple[LogPointer, LogRecord]]:
        """A named run's index as the ``(pointer, record)`` stream a scan of
        the run would feed the gate, minus the values: tombstones, then
        versions.  The timestamp rule makes their order immaterial."""
        table, group = self.repo.segment_scope(file_no)
        versions, tombstones = decode_run_index(self.repo.read_run_index(file_no))
        return [
            (
                entry.pointer,
                LogRecord(
                    kind, table=table, key=entry.key, group=group,
                    timestamp=entry.timestamp,
                ),
            )
            for kind, block in (
                (RecordType.INVALIDATE, tombstones),
                (RecordType.WRITE, versions),
            )
            for entry in block
        ]

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

    def _redo(self, pointer: LogPointer, record: LogRecord) -> bool:
        """Redo one effective record into the member covering its key."""
        index = None
        for member in self.members.values():
            if member.tablet.table == record.table and member.tablet.covers(record.key):
                if record.timestamp > member.watermark:
                    member.watermark = record.timestamp
                index = member.index(record.group)
                break
        return redo(index, pointer, record, self._tombstones)
