"""The master node (§3.3): catalog, tablet assignment, failover.

The master monitors tablet-server liveness through the coordination
service (servers hold ephemeral znodes), owns the table catalog, assigns
tablets to servers, and orchestrates recovery when a server fails
permanently: the failed server's log is split by tablet and healthy
servers adopt the tablets.  Multiple master instances may run; the active
one is elected via the coordination service and the master never sits on
the data path (clients cache locations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coordination.election import LeaderElection
from repro.coordination.znodes import CoordinationService, Session
from repro.core.migration import LiveMigrator
from repro.core.partition import split_key_domain
from repro.core.recovery import (
    RecoveryReport,
    adopt_split_log,
    split_log_by_tablet,
)
from repro.core.schema import TableSchema
from repro.core.tablet import Tablet, TabletId, TabletRouter
from repro.core.tablet_server import TabletServer
from repro.dfs.filesystem import DFS
from repro.errors import (
    ServerDownError,
    TableAlreadyExists,
    TableNotFound,
    TabletNotFound,
)

DEFAULT_KEY_DOMAIN = 2_000_000_000  # max key in the YCSB benchmark (§4.1)


@dataclass
class SharedCatalog:
    """Cluster metadata shared by every master instance.

    In the real deployment this state lives in the coordination service so
    a promoted standby sees it; here the master instances of one cluster
    share a catalog object, which models the same thing.
    """

    tables: dict[str, TableSchema] = field(default_factory=dict)
    # table -> router over its tablets; replaced when a split changes them
    tablets: dict[str, TabletRouter] = field(default_factory=dict)
    assignments: dict[str, str] = field(default_factory=dict)  # tablet -> server
    servers: dict[str, TabletServer] = field(default_factory=dict)
    server_sessions: dict[str, Session] = field(default_factory=dict)
    # Split-fence epoch per dead server: bumped before each failover log
    # split so adopters can reject a crashed splitter's stale files.
    fence_epochs: dict[str, int] = field(default_factory=dict)
    # Ownership epoch per tablet: bumped when a handoff of it begins.  A
    # read replica subscribes under it, so one that was following the
    # deposed owner is torn down and re-pointed.
    owner_epochs: dict[str, int] = field(default_factory=dict)
    # Read-replica placement: tablet id -> follower server names (empty
    # unless config.read_replicas; maintained by the cluster heartbeat).
    followers: dict[str, list[str]] = field(default_factory=dict)

    def tablet_for(self, table: str, key: bytes) -> str:
        """Id of the tablet of ``table`` that covers ``key`` today ("" when
        none does) — how a log split attributes a record by key."""
        router = self.tablets.get(table)
        tablet = None if router is None else router.find(key)
        return "" if tablet is None else str(tablet.tablet_id)


@dataclass
class FailoverReport:
    """Result of handling one permanent server failure."""

    failed_server: str
    reassigned: dict[str, str] = field(default_factory=dict)  # tablet -> new server
    recovery: dict[str, RecoveryReport] = field(default_factory=dict)


class Master:
    """The (active) master process."""

    def __init__(
        self,
        name: str,
        dfs: DFS,
        coordination: CoordinationService,
        catalog: SharedCatalog | None = None,
    ) -> None:
        self.name = name
        self.dfs = dfs
        self.coordination = coordination
        self.session: Session = coordination.connect(name)
        coordination.ensure_path(self.session, "/logbase/servers")
        self.election = LeaderElection(coordination, "/logbase/master-election")
        self.election.volunteer(self.session, name)
        self.catalog = catalog if catalog is not None else SharedCatalog()
        # The one mover of tablets between live servers, bound to this
        # master's coordination session: once a standby is promoted, the
        # deposed master's migrator can no longer advance a handoff (its
        # znode writes raise).
        self.migrator = LiveMigrator(self)

    @property
    def _tables(self) -> dict[str, TableSchema]:
        return self.catalog.tables

    @property
    def _tablets(self) -> dict[str, TabletRouter]:
        return self.catalog.tablets

    @property
    def _assignments(self) -> dict[str, str]:
        return self.catalog.assignments

    @property
    def _servers(self) -> dict[str, TabletServer]:
        return self.catalog.servers

    @property
    def _server_sessions(self) -> dict[str, Session]:
        return self.catalog.server_sessions

    # -- leadership -----------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        """Whether this master currently leads."""
        return self.election.is_leader(self.name)

    # -- server membership ---------------------------------------------------------------

    def register_server(self, server: TabletServer) -> None:
        """A tablet server joins: it takes an ephemeral liveness znode."""
        session = self.coordination.connect(server.name)
        self.coordination.create(
            session, f"/logbase/servers/{server.name}", ephemeral=True
        )
        self._servers[server.name] = server
        self._server_sessions[server.name] = session
        if getattr(self, "_auto_failover", False):
            self._watch_server(server.name)

    def live_servers(self) -> list[str]:
        """Names of servers whose liveness znode exists, sorted."""
        return [
            name
            for name in self.coordination.get_children("/logbase/servers")
            if self._servers.get(name) is not None
        ]

    def server(self, name: str) -> TabletServer:
        """Server handle by name."""
        return self._servers[name]

    # -- catalog / DDL ---------------------------------------------------------------------

    def create_table(
        self,
        schema: TableSchema,
        *,
        tablets_per_server: int = 1,
        key_domain: int = DEFAULT_KEY_DOMAIN,
        key_width: int = 12,
        only_servers: list[str] | None = None,
    ) -> list[Tablet]:
        """Create a table: range-partition it and assign tablets round-robin.

        Args:
            only_servers: restrict hosting to these servers (the paper's
                micro-benchmarks run one tablet server over a 3-node DFS).

        Raises:
            TableAlreadyExists: if the name is taken.
        """
        if schema.name in self._tables:
            raise TableAlreadyExists(schema.name)
        servers = self.live_servers()
        if only_servers is not None:
            servers = [name for name in servers if name in only_servers]
        if not servers:
            raise ServerDownError("no live tablet servers to host the table")
        n_tablets = max(1, len(servers) * tablets_per_server)
        ranges = split_key_domain(key_domain, n_tablets, key_width)
        tablets = [
            Tablet(TabletId(schema.name, i), key_range, schema)
            for i, key_range in enumerate(ranges)
        ]
        self._tables[schema.name] = schema
        self._tablets[schema.name] = TabletRouter((t, t) for t in tablets)
        for i, tablet in enumerate(tablets):
            target = servers[i % len(servers)]
            self._assign(tablet, target)
        return tablets

    def _assign(self, tablet: Tablet, server_name: str) -> None:
        self._assignments[str(tablet.tablet_id)] = server_name
        self._servers[server_name].assign_tablet(tablet)

    def schema(self, table: str) -> TableSchema:
        """Schema of ``table``.

        Raises:
            TableNotFound: if unknown.
        """
        schema = self._tables.get(table)
        if schema is None:
            raise TableNotFound(table)
        return schema

    def tablets(self, table: str) -> list[Tablet]:
        """All tablets of ``table``."""
        if table not in self._tablets:
            raise TableNotFound(table)
        return list(self._tablets[table])

    # -- routing ------------------------------------------------------------------------------

    def locate(self, table: str, key: bytes) -> tuple[str, Tablet]:
        """Find (server name, tablet) serving ``key``.

        Raises:
            TabletNotFound: if no tablet covers the key.
        """
        if table not in self._tablets:
            raise TableNotFound(table)
        tablet = self._tablets[table].find(key)
        if tablet is None:
            raise TabletNotFound(f"{table}:{key!r}")
        return self._assignments[str(tablet.tablet_id)], tablet

    def locations(self, table: str) -> list[tuple[str, Tablet]]:
        """(server, tablet) for every tablet of ``table`` (scan planning)."""
        return [
            (self._assignments[str(t.tablet_id)], t) for t in self.tablets(table)
        ]

    def follower_locations(self, table: str) -> dict[str, list[str]]:
        """tablet id -> follower server names for every tablet of ``table``
        (read-replica routing; empty lists when no followers are placed)."""
        return {
            str(t.tablet_id): list(self.catalog.followers.get(str(t.tablet_id), ()))
            for t in self.tablets(table)
        }

    # -- failover --------------------------------------------------------------------------------

    def expire_server(self, name: str) -> None:
        """Expire a server's liveness session (crash detection)."""
        session = self._server_sessions.get(name)
        if session is not None:
            session.expire()

    def handle_permanent_failure(self, failed: str) -> FailoverReport:
        """Reassign a dead server's tablets to healthy servers (§3.8).

        The failed server's log (in the shared DFS) is split by tablet;
        each adopting server redoes its new tablet's split file.

        The procedure is *restartable*: ownership of each tablet flips
        only after its adoption replay finished, so if the splitter or an
        adopter crashes mid-failover the tablet is still orphaned and a
        retried call re-splits (under a fresh fence epoch) and re-adopts
        it — the adopter's (key, timestamp) dedupe keeps the replay from
        double-appending whatever the crashed attempt already re-homed.
        The split files are deleted once the last orphan has flipped.
        """
        self.expire_server(failed)
        failed_server = self._servers.pop(failed, None)
        orphaned = [
            tablet_id
            for tablet_id, owner in self._assignments.items()
            if owner == failed
        ]
        if failed_server is None and not orphaned:
            raise ServerDownError(f"unknown server {failed}")
        healthy = self.live_servers()
        if not healthy:
            raise ServerDownError("no healthy servers left to adopt tablets")
        report = FailoverReport(failed_server=failed)
        if not orphaned:
            return report
        epoch = self.catalog.fence_epochs.get(failed, 0) + 1
        self.catalog.fence_epochs[failed] = epoch
        splitter = self._servers[healthy[0]].machine

        splits = split_log_by_tablet(
            self.dfs, failed, splitter, locate=self.catalog.tablet_for, fence=epoch
        )
        for i, tablet_id in enumerate(sorted(orphaned)):
            target = healthy[i % len(healthy)]
            tablet = self._tablet_by_id(tablet_id)
            self._servers[target].assign_tablet(tablet)
            if tablet_id in splits.paths:
                report.recovery[tablet_id] = adopt_split_log(
                    self._servers[target], self.dfs, failed, tablet_id, fence=epoch
                )
            # The flip is the commit point of this tablet's failover.
            self._assignments[tablet_id] = target
            report.reassigned[tablet_id] = target
        # Every orphan has flipped with its records re-homed into its
        # adopter's own log: nothing reads the split files again.  (A
        # crash above leaves them for the retry, which re-splits.)
        for path in self.dfs.list_files(f"/logbase/splits/{failed}/"):
            self.dfs.delete(path)
        return report

    # -- automatic failure detection (§3.3: the master monitors servers) ----------

    def enable_auto_failover(self) -> None:
        """Watch every server's liveness znode; when one disappears (its
        session expired — the server died), run permanent failover
        immediately.  New servers registered later are watched when they
        register."""
        self._auto_failover = True
        for name in list(self._servers):
            self._watch_server(name)

    def _watch_server(self, name: str) -> None:
        def on_event(event: str, path: str) -> None:
            if event != "deleted" or not getattr(self, "_auto_failover", False):
                return
            if not self.is_active:
                return  # a standby master leaves failover to the leader
            if name in self._servers:
                self.handle_permanent_failure(name)

        self.coordination.watch(f"/logbase/servers/{name}", on_event)

    # -- elastic scaling (§1 desiderata: scale out and back on demand) -----------

    def rebalance(self) -> dict[str, str]:
        """Even out tablet counts across live servers; returns the moves
        performed (tablet id -> new server)."""
        servers = self.live_servers()
        if not servers:
            return {}
        loads: dict[str, list[str]] = {name: [] for name in servers}
        for tablet_id, owner in self._assignments.items():
            if owner in loads:
                loads[owner].append(tablet_id)
        moves: dict[str, str] = {}
        while True:
            busiest = max(loads, key=lambda n: len(loads[n]))
            idlest = min(loads, key=lambda n: len(loads[n]))
            if len(loads[busiest]) - len(loads[idlest]) <= 1:
                return moves
            tablet_id = sorted(loads[busiest])[-1]
            self.migrator.migrate(tablet_id, idlest)
            loads[busiest].remove(tablet_id)
            loads[idlest].append(tablet_id)
            moves[tablet_id] = idlest

    def decommission(self, name: str) -> dict[str, str]:
        """Gracefully retire a server (scale back): move every tablet off
        it, then drop it from the membership.  Returns the moves."""
        if name not in self._servers:
            raise ServerDownError(f"unknown server {name}")
        owned = sorted(
            tablet_id for tablet_id, owner in self._assignments.items() if owner == name
        )
        remaining = [n for n in self.live_servers() if n != name]
        if owned and not remaining:
            raise ServerDownError("cannot decommission the last server")
        moves: dict[str, str] = {}
        for i, tablet_id in enumerate(owned):
            target = remaining[i % len(remaining)]
            self.migrator.migrate(tablet_id, target)
            moves[tablet_id] = target
        self.expire_server(name)
        self._servers.pop(name, None)
        return moves

    def _tablet_by_id(self, tablet_id: str) -> Tablet:
        for tablets in self._tablets.values():
            for tablet in tablets:
                if str(tablet.tablet_id) == tablet_id:
                    return tablet
        raise TabletNotFound(tablet_id)
