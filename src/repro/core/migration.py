"""Live tablet migration (§5): lease-fenced ownership handoff.

Because "the log is the database" — every tablet's data already lives in
the shared, replicated DFS — migrating a tablet means the target reading
it where it already is: re-homed into the target's log once, never staged
or shipped by the source.  The state machine here makes that observation
operational *and* crash-safe:

1. **prepare** — the master persists a migration record in the
   coordination service (so a promoted standby can finish or abort the
   handoff), bumps the tablet's ownership epoch (its read replicas
   re-subscribe), and assigns the tablet to the target in *importing*
   mode (the target owns indexes for it but rejects client ops until
   the flip).
2. **catch-up** — the target scans the source's log on its own machine,
   straight from the shared DFS segments, keeps the records the catalog
   attributes to the moving tablet and re-homes them into its own log
   (:func:`~repro.core.recovery.rehome`) — once, never staged in between.
   The source keeps serving throughout; the source-log position the
   catch-up covered is persisted.
3. **fenced flip** — the source is fenced (told to bounce ops with the
   retryable ``TabletMigratingError``; if it is partitioned or paused and
   cannot be told, the master instead waits out its ownership lease so it
   self-fences), the short delta since the catch-up position is replayed,
   and ownership flips in the catalog — the commit point.  Client
   unavailability is bounded by this window, measured into the
   ``latency.migration.flip`` histogram.
4. **serve** — the target's lease is granted, the source drops the
   tablet, the migration record is cleared.

Every step is idempotent: re-homing dedupes on (key, timestamp), there
are no intermediate files for a crashed attempt to leave behind, and
:meth:`LiveMigrator.resume` lets a new master either finish a migration
that reached the flip or abort one that did not — the single-owner
invariant holds across any crash interleaving.  This is the only way a
tablet moves between live servers: ``Master.rebalance`` and
``Master.decommission`` run the same state machine, whatever the config
(``live_migration`` gates lease *checking*, not which mover runs).

The module also hosts hot-tablet **splitting** (split a tablet at the
median key of its observed-access sample; pure index re-bucketing, the
log is untouched) and the master-side **load balancer** that migrates or
splits when per-server heat skew crosses the configured threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.partition import KeyRange
from repro.core.recovery import rehome
from repro.core.tablet import LEASE_SECONDS, Tablet, TabletId
from repro.errors import MigrationError, NoNodeError, TabletNotFound
from repro.obs.hist import Histogram
from repro.obs.trace import span
from repro.sim.failure import (
    CP_MIGRATION_CATCHUP,
    CP_MIGRATION_FLIP,
    CP_MIGRATION_PREPARE,
    CP_SPLIT_FLIP,
    crash_point,
)
from repro.sim.metrics import (
    HIST_MIGRATION_FLIP,
    MIGRATION_ABORTED,
    MIGRATION_BALANCER_MOVES,
    MIGRATION_COMPLETED,
    MIGRATION_FLIP_SECONDS,
    MIGRATION_RECORDS_CAUGHT_UP,
    MIGRATION_SPLITS,
    MIGRATION_STARTED,
    SPAN_MIGRATION_CATCHUP_PHASE,
    SPAN_MIGRATION_FLIP_PHASE,
)
from repro.wal.record import LogPointer
from repro.wal.repository import LogRepository

MIGRATIONS_PATH = "/logbase/migrations"
SPLITS_PATH = "/logbase/tablet-splits"

# Tiny clock nudge past a waited-out lease so "now <= lease_until" is
# strictly false on the fenced owner.
_LEASE_EPSILON = 1e-6

# Acceptance bound (simulated seconds) on one migration's fenced-flip
# window — the only unavailability a live migration may cause.  Tests and
# ``bench_migration`` assert flip p99 stays under it.
FLIP_BUDGET_SECONDS = 2.0

# The balancer acts when the hottest server's heat exceeds the coldest's
# by this factor ...
BALANCER_SKEW_THRESHOLD = 2.0
# ... and splits (rather than migrates) a tablet carrying at least this
# share of its server's heat: moving the whole tablet cannot fix a hotspot
# inside it.
BALANCER_SPLIT_FRACTION = 0.6


def _crash_point(point: str, rec: dict, **ctx) -> None:
    crash_point(
        point, tablet=rec["tablet"], source=rec["source"], target=rec["target"], **ctx
    )


@dataclass
class MigrationReport:
    """Outcome of one live migration."""

    tablet_id: str
    source: str
    target: str
    records_caught_up: int = 0  # async catch-up replays
    delta_records: int = 0  # records replayed inside the flip window
    flip_seconds: float = 0.0  # the only client-visible unavailability
    waited_lease: bool = False  # source unreachable: fenced by lease expiry
    completed: bool = False

    def to_dict(self) -> dict:
        return {
            "tablet_id": self.tablet_id,
            "source": self.source,
            "target": self.target,
            "records_caught_up": self.records_caught_up,
            "delta_records": self.delta_records,
            "flip_seconds": self.flip_seconds,
            "waited_lease": self.waited_lease,
            "completed": self.completed,
        }


@dataclass
class SplitReport:
    """Outcome of one hot-tablet split."""

    tablet_id: str
    server: str
    split_key: bytes
    left: str = ""
    right: str = ""
    entries_moved: int = 0

    def to_dict(self) -> dict:
        return {
            "tablet_id": self.tablet_id,
            "server": self.server,
            "split_key": self.split_key.decode("latin-1"),
            "left": self.left,
            "right": self.right,
            "entries_moved": self.entries_moved,
        }


class LiveMigrator:
    """Drives live migrations and splits on behalf of one master.

    The migrator persists every state transition through its master's
    coordination session, so a deposed master's attempt to advance a
    migration after failover dies with ``SessionExpiredError`` — the
    coordination service is the fence between masters, the lease is the
    fence between tablet servers.
    """

    def __init__(self, master) -> None:
        self.master = master
        self.flip_histogram = Histogram(HIST_MIGRATION_FLIP)

    # -- znode persistence -------------------------------------------------------

    def _persist(self, rec: dict, root: str = MIGRATIONS_PATH) -> None:
        """Write one intent (a migration's, or a split's under
        ``SPLITS_PATH``) through this master's session."""
        coordination = self.master.coordination
        session = self.master.session
        coordination.ensure_path(session, root)
        path = f"{root}/{rec['tablet']}"
        data = json.dumps(rec, sort_keys=True).encode()
        if coordination.exists(path):
            coordination.set(session, path, data)
        else:
            coordination.create(session, path, data=data)

    def _clear(self, rec: dict, root: str = MIGRATIONS_PATH) -> None:
        try:
            self.master.coordination.delete(
                self.master.session, f"{root}/{rec['tablet']}"
            )
        except NoNodeError:
            pass

    def _pending(self, root: str) -> list[dict]:
        coordination = self.master.coordination
        if not coordination.exists(root):
            return []
        return [
            json.loads(coordination.get(f"{root}/{child}")[0])
            for child in sorted(coordination.get_children(root))
        ]

    def pending_migrations(self) -> list[dict]:
        """Parsed migration records currently persisted in znodes."""
        return self._pending(MIGRATIONS_PATH)

    # -- helpers -----------------------------------------------------------------

    def _server(self, name: str):
        return self.master.catalog.servers.get(name)

    def _majority_reachable(self, server) -> bool:
        """Whether a majority of the other registered servers' machines
        can reach ``server`` — the master's (conservative) stand-in for
        "can I tell this server to fence itself"."""
        if not server.machine.alive:
            return False
        partitions = server.machine.network.partitions
        others = [
            peer.machine
            for peer in self.master.catalog.servers.values()
            if peer.machine is not server.machine
        ]
        if not others:
            return True
        ok = sum(
            1
            for machine in others
            if partitions.reachable(machine.name, server.machine.name)
        )
        return 2 * ok >= len(others)

    # -- the state machine -------------------------------------------------------

    def migrate(self, tablet_id: str, target_name: str) -> MigrationReport:
        """Run one live migration end to end.  Raises on interruption
        (crash points fire mid-flight in chaos runs); the persisted record
        lets :meth:`resume` finish or abort what this attempt started."""
        steps, ctx = self.phases(tablet_id, target_name)
        for _name, step in steps:
            step()
        return ctx["report"]

    def phases(self, tablet_id: str, target_name: str):
        """The migration as named virtual-time steps.

        Returns ``([(name, callable), ...], ctx)``; running the callables
        in order is :meth:`migrate`.  Benchmarks drive them through the
        concurrent scheduler so client ops interleave between phases —
        writes landing between catch-up and flip become the flip delta,
        exactly as they would in a real deployment.
        """
        ctx: dict = {}

        def prepare() -> None:
            ctx["rec"] = self._prepare(tablet_id, target_name)

        def catch_up() -> None:
            self._catch_up(ctx["rec"])

        def flip() -> None:
            ctx["report"] = self._flip(ctx["rec"])

        return [("prepare", prepare), ("catchup", catch_up), ("flip", flip)], ctx

    def _prepare(self, tablet_id: str, target_name: str) -> dict:
        catalog = self.master.catalog
        source_name = catalog.assignments.get(tablet_id)
        if source_name is None:
            raise TabletNotFound(tablet_id)
        if source_name == target_name:
            raise MigrationError(f"{tablet_id} already lives on {target_name}")
        target = self._server(target_name)
        if target is None or not target.machine.alive or not target.serving:
            raise MigrationError(f"migration target {target_name} is not serving")
        # Read replicas subscribed under the old epoch are re-pointed.
        catalog.owner_epochs[tablet_id] = catalog.owner_epochs.get(tablet_id, 0) + 1
        rec = {
            "tablet": tablet_id,
            "source": source_name,
            "target": target_name,
            "state": "prepare",
            "catchup": None,
            "records": 0,
        }
        target.machine.counters.add(MIGRATION_STARTED)
        self._persist(rec)
        _crash_point(CP_MIGRATION_PREPARE, rec)
        # Importing mode: the target owns the tablet's indexes but bounces
        # client ops until the flip (the catalog still routes to the
        # source, so only a stale direct call could land here anyway).
        tablet = self.master._tablet_by_id(tablet_id)
        target.assign_tablet(tablet)
        target.ownership.fence(tablet_id)
        return rec

    def _rehome_from_source(self, rec: dict, start: LogPointer | None = None) -> int:
        """The target reads the source's log from ``start`` on, out of the
        shared DFS on its own machine, and re-homes the records today's
        catalog attributes to the moving tablet (by key: the id stamped on
        a record names the parent of a since-split tablet and is stripped
        in compacted segments).  Returns how many took effect."""
        tablet_id = rec["tablet"]
        target = self._server(rec["target"])
        locate = self.master.catalog.tablet_for
        source_log = LogRepository.reattach(
            self.master.dfs, target.machine, f"/logbase/{rec['source']}/log"
        )
        replay = rehome(
            target,
            source_log.scan_all(start=start),
            tablet_id,
            accept=lambda r: (locate(r.table, r.key) or r.tablet) == tablet_id,
        )
        caught = replay.writes_applied + replay.deletes_applied
        target.machine.counters.add(MIGRATION_RECORDS_CAUGHT_UP, caught)
        return caught

    def _catch_up(self, rec: dict) -> None:
        tablet_id = rec["tablet"]
        target = self._server(rec["target"])
        source = self._server(rec["source"])
        rec["state"] = "catchup"
        self._persist(rec)
        with span(SPAN_MIGRATION_CATCHUP_PHASE, target.machine, tablet=tablet_id):
            # The source keeps serving; its log keeps growing.  Record the
            # position this pass covers *first* — anything later is the
            # flip delta's job (re-reading an overlap is safe, re-homing
            # dedupes on (key, timestamp)).  With no source process to ask
            # the delta rescans from the start.
            cutoff = source.log.end_pointer() if source is not None else None
            # stage="split": nothing re-homed yet; stage="adopt": the
            # target's log holds the records, the cursor is not persisted.
            _crash_point(CP_MIGRATION_CATCHUP, rec, stage="split")
            rec["records"] = self._rehome_from_source(rec)
            _crash_point(CP_MIGRATION_CATCHUP, rec, stage="adopt")
            rec["catchup"] = [cutoff.file_no, cutoff.offset] if cutoff else None
            rec["state"] = "catchup_done"
            self._persist(rec)

    def _flip(self, rec: dict) -> MigrationReport:
        tablet_id, source_name, target_name = (
            rec["tablet"],
            rec["source"],
            rec["target"],
        )
        target = self._server(target_name)
        source = self._server(source_name)
        report = MigrationReport(
            tablet_id=tablet_id,
            source=source_name,
            target=target_name,
            records_caught_up=rec.get("records", 0),
        )
        rec["state"] = "flip"
        self._persist(rec)
        _crash_point(CP_MIGRATION_FLIP, rec, stage="begin")
        with span(SPAN_MIGRATION_FLIP_PHASE, target.machine, tablet=tablet_id):
            flip_start = target.machine.clock.now
            if source is not None and self._majority_reachable(source):
                # Reachable source: fence it directly — ops bounce with the
                # retryable TabletMigratingError from here to the flip.
                source.ownership.fence(tablet_id)
            else:
                # Partitioned or paused owner: it cannot be told, so wait
                # out its ownership lease — it self-fences the moment its
                # own clock passes the expiry.  The wait is charged to the
                # flip window (this is exactly why the lease TTL bounds
                # migration unavailability), and wall time passes on the
                # paused machine too.
                report.waited_lease = True
                wait = LEASE_SECONDS + _LEASE_EPSILON
                target.machine.clock.advance(wait)
                if source is not None:
                    source.machine.clock.advance(wait)
            # Delta catch-up: everything the source appended since the
            # async pass, re-homed inside the fence.
            start = None
            if rec.get("catchup"):
                start = LogPointer(rec["catchup"][0], rec["catchup"][1], 0)
            report.delta_records = self._rehome_from_source(rec, start)
            _crash_point(CP_MIGRATION_FLIP, rec, stage="commit")
            # The commit point: catalog ownership flips to the target.
            self.master.catalog.assignments[tablet_id] = target_name
            self._finalize(rec, report, flip_start)
        return report

    def _finalize(self, rec: dict, report: MigrationReport, flip_start: float) -> None:
        """Post-commit cleanup: open the target, drop the source, clear
        the record, account the flip window."""
        tablet_id = rec["tablet"]
        target = self._server(rec["target"])
        source = self._server(rec["source"])
        target.ownership.unfence(tablet_id, grant=True)
        # Ownership changed under a bumped epoch: tear the tablet's read
        # replicas (if any) down right now so none keeps applying the
        # deposed owner's log.  The next heartbeat re-places them against
        # the new owner.
        for follower_name in self.master.catalog.followers.pop(tablet_id, []):
            follower_server = self._server(follower_name)
            if follower_server is not None:
                follower_server.replicas.unfollow(tablet_id)
        if (
            source is not None
            and source.machine.alive
            and source.serving
            and self._majority_reachable(source)
        ):
            tablet = target.tablets.get(tablet_id)
            if tablet is not None:
                source.unassign_tablet(tablet.tablet_id)
        # else: the unreachable stale owner cannot be told — its lapsed
        # lease (or its death) keeps it from serving, and heartbeat
        # reconciliation reclaims the copy when it rejoins.
        rec["state"] = "done"
        self._clear(rec)
        report.flip_seconds = target.machine.clock.now - flip_start
        report.completed = True
        self.flip_histogram.record(report.flip_seconds)
        target.machine.counters.add(MIGRATION_FLIP_SECONDS, report.flip_seconds)
        target.machine.counters.add(MIGRATION_COMPLETED)

    # -- crash recovery ----------------------------------------------------------

    def resume(self) -> list[dict]:
        """Converge every persisted migration and split intent.

        Called by a newly-promoted master (or a retrying operator): a
        migration that reached its flip — or already committed in the
        catalog — is completed; anything earlier is safely aborted back
        to the source.  Returns ``[{"tablet", "outcome"}, ...]``.
        """
        outcomes = []
        for rec in self.pending_migrations():
            outcomes.append(
                {"tablet": rec["tablet"], "outcome": self._resume_one(rec)}
            )
        for rec in self._pending(SPLITS_PATH):
            outcomes.append(
                {"tablet": rec["tablet"], "outcome": self._resume_split(rec)}
            )
        return outcomes

    def _resume_one(self, rec: dict) -> str:
        tablet_id = rec["tablet"]
        catalog = self.master.catalog
        target = self._server(rec["target"])
        target_live = (
            target is not None
            and target.machine.alive
            and target.serving
            and tablet_id in target.tablets
        )
        if catalog.assignments.get(tablet_id) == rec["target"]:
            # The flip committed; only the cleanup was interrupted.
            if target_live:
                report = MigrationReport(
                    tablet_id=tablet_id, source=rec["source"], target=rec["target"]
                )
                self._finalize(rec, report, target.machine.clock.now)
                return "completed"
            # Target died *after* taking ownership: its adopted records
            # are durable in its own log — the normal permanent-failure
            # path re-homes them.  Drop the stale record.
            self._clear(rec)
            return "completed"
        if rec["state"] == "flip" and target_live:
            # The fence was (or can be re-)established and the target
            # holds the caught-up data: finish the flip — re-homing the
            # delta again is deduped.
            report = self._flip(rec)
            return "completed" if report.completed else "aborted"
        self._abort(rec)
        return "aborted"

    def _abort(self, rec: dict) -> None:
        """Converge back to "the source owns the tablet": undo the
        target's import and re-open the source."""
        tablet_id = rec["tablet"]
        catalog = self.master.catalog
        target = self._server(rec["target"])
        source = self._server(rec["source"])
        if target is not None and catalog.assignments.get(tablet_id) != rec["target"]:
            tablet = target.tablets.get(tablet_id)
            target.ownership.unfence(tablet_id)
            if tablet is not None:
                # Records a crashed catch-up already appended to the
                # target's log stay there harmlessly: compaction's
                # owned-records filter drops them, and a restart redo
                # routes them to TabletNotFound.
                target.unassign_tablet(tablet.tablet_id)
        if source is not None:
            source.ownership.unfence(
                tablet_id,
                grant=catalog.assignments.get(tablet_id) == rec["source"]
                and source.machine.alive
                and source.serving,
            )
        machine = (target or source).machine if (target or source) else None
        if machine is not None:
            machine.counters.add(MIGRATION_ABORTED)
        self._clear(rec)

    # -- hot-tablet splitting ----------------------------------------------------

    def split(self, tablet_id: str, split_key: bytes | None = None) -> SplitReport:
        """Split one tablet at ``split_key`` (default: the median of the
        owner's observed-key sample).  The split is local to the owning
        server — the log is untouched, index entries are re-bucketed —
        with a znode intent + ``CP_SPLIT_FLIP`` guarding the brief commit
        window.
        """
        catalog = self.master.catalog
        owner_name = catalog.assignments.get(tablet_id)
        if owner_name is None:
            raise TabletNotFound(tablet_id)
        owner = self._server(owner_name)
        if owner is None or not owner.machine.alive or not owner.serving:
            raise MigrationError(f"split owner {owner_name} is not serving")
        old = self.master._tablet_by_id(tablet_id)
        if split_key is None:
            split_key = owner.ownership.split_key(tablet_id)
        if split_key is None:
            raise MigrationError(
                f"no observed-key sample to split {tablet_id} on"
            )
        key_range = old.key_range
        if not key_range.contains(split_key) or split_key <= key_range.start:
            raise MigrationError(
                f"split key {split_key!r} not strictly inside {key_range}"
            )
        table = old.table
        next_ordinal = (
            max(t.tablet_id.ordinal for t in catalog.tablets[table]) + 1
        )
        left = Tablet(
            TabletId(table, next_ordinal),
            KeyRange(key_range.start, split_key),
            old.schema,
        )
        right = Tablet(
            TabletId(table, next_ordinal + 1),
            KeyRange(split_key, key_range.end),
            old.schema,
        )
        rec = {
            "tablet": tablet_id,
            "server": owner_name,
            "key": split_key.decode("latin-1"),
            "left": str(left.tablet_id),
            "right": str(right.tablet_id),
        }
        self._persist(rec, SPLITS_PATH)
        # The brief fenced window: ops on the old tablet bounce while the
        # index entries re-bucket, then the catalog commits the new pair.
        owner.ownership.fence(tablet_id)
        crash_point(CP_SPLIT_FLIP, tablet=tablet_id, server=owner_name)
        moved = owner.split_tablet(old, left, right)
        tablets = catalog.tablets[table]
        tablets.remove(old)
        tablets.extend([left, right])
        tablets.sort(key=lambda t: t.key_range.start)
        del catalog.assignments[tablet_id]
        catalog.assignments[str(left.tablet_id)] = owner_name
        catalog.assignments[str(right.tablet_id)] = owner_name
        self._clear(rec, SPLITS_PATH)
        owner.machine.counters.add(MIGRATION_SPLITS)
        return SplitReport(
            tablet_id=tablet_id,
            server=owner_name,
            split_key=split_key,
            left=str(left.tablet_id),
            right=str(right.tablet_id),
            entries_moved=moved,
        )

    def _resume_split(self, rec: dict) -> str:
        """Converge one interrupted split: either the catalog committed
        (just clean up) or it did not (abort the intent — the old tablet
        boundaries still hold everywhere that matters)."""
        catalog = self.master.catalog
        committed = (
            rec["tablet"] not in catalog.assignments
            and rec["left"] in catalog.assignments
        )
        owner = self._server(rec["server"])
        if not committed and owner is not None:
            owner.ownership.unfence(
                rec["tablet"],
                grant=catalog.assignments.get(rec["tablet"]) == rec["server"]
                and owner.machine.alive
                and owner.serving,
            )
        self._clear(rec, SPLITS_PATH)
        return "completed" if committed else "aborted"

    # -- load balancing ----------------------------------------------------------

    def balance_tick(self, tablet_heat: dict[str, float]) -> list[dict]:
        """One balancer pass over the master-side heat snapshot.

        When the hottest live server carries more than
        ``BALANCER_SKEW_THRESHOLD`` times the coldest's heat, act once: a
        tablet dominating its server's heat (``BALANCER_SPLIT_FRACTION``)
        and with a usable split key is split in place; otherwise the
        hottest tablet migrates to the coldest server.  One action per
        tick keeps the balancer convergent (the next heartbeat sees the
        post-action heat).
        """
        catalog = self.master.catalog
        totals: dict[str, float] = {}
        for name, server in catalog.servers.items():
            if server.machine.alive and server.serving:
                totals[name] = 0.0
        if len(totals) < 2:
            return []
        owned: dict[str, list[str]] = {name: [] for name in totals}
        for tablet_id, owner in catalog.assignments.items():
            if owner in totals:
                totals[owner] += tablet_heat.get(tablet_id, 0.0)
                owned[owner].append(tablet_id)
        hottest = max(totals, key=lambda n: totals[n])
        coldest = min(totals, key=lambda n: totals[n])
        if totals[hottest] <= BALANCER_SKEW_THRESHOLD * max(totals[coldest], 1.0):
            return []
        candidates = owned[hottest]
        if not candidates:
            return []
        hot_tablet = max(candidates, key=lambda t: tablet_heat.get(t, 0.0))
        hot_share = (
            tablet_heat.get(hot_tablet, 0.0) / totals[hottest]
            if totals[hottest]
            else 0.0
        )
        owner = self._server(hottest)
        if (
            hot_share >= BALANCER_SPLIT_FRACTION
            and owner is not None
            and owner.ownership.split_key(hot_tablet) is not None
        ):
            report = self.split(hot_tablet)
            owner.machine.counters.add(MIGRATION_BALANCER_MOVES)
            return [{"action": "split", **report.to_dict()}]
        report = self.migrate(hot_tablet, coldest)
        self._server(coldest).machine.counters.add(MIGRATION_BALANCER_MOVES)
        return [{"action": "migrate", **report.to_dict()}]
