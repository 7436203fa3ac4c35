"""Cluster assembly: machines, DFS, coordination, masters, tablet servers.

Mirrors the paper's deployment (§4.1): every machine runs both a datanode
and a tablet server; the DFS is shared; masters are elected through the
coordination service; a timestamp oracle hands out commit timestamps.
"""

from __future__ import annotations

from repro.config import RACKS, LogBaseConfig
from repro.coordination.tso import TimestampOracle
from repro.coordination.znodes import CoordinationService
from repro.core.checkpoint import CheckpointManager
from repro.core.master import Master, SharedCatalog
from repro.core.migration import LiveMigrator
from repro.core.tablet_server import TabletServer
from repro.dfs.filesystem import DFS
from repro.obs.hist import Histogram
from repro.obs.trace import Tracer
from repro.sim.clock import makespan
from repro.sim.failure import FailureInjector
from repro.sim.machine import Machine
from repro.sim.metrics import HIST_REPLICA_LAG, Counters

# Half-life in simulated seconds for decaying the master-side
# ``tablet_heat`` of tablets no longer in the catalog's assignments.
HEAT_HALF_LIFE = 60.0


class LogBaseCluster:
    """A complete simulated LogBase deployment.

    Args:
        n_nodes: number of machines (each runs datanode + tablet server).
        config: deployment configuration.
        n_masters: master instances entering the election.
    """

    def __init__(
        self,
        n_nodes: int = 3,
        config: LogBaseConfig | None = None,
        n_masters: int = 1,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.config = config if config is not None else LogBaseConfig()
        self.config.validate()
        self.machines = [
            Machine(
                f"node-{i}",
                rack=f"rack-{i % RACKS}",
                disk_model=self.config.disk,
                network=self.config.network,
            )
            for i in range(n_nodes)
        ]
        self.dfs = DFS(
            self.machines,
            replication=self.config.replication,
            checksum_replicas=self.config.dfs_checksum_replicas,
            block_cache_bytes=(
                self.config.block_cache_budget_bytes
                if self.config.block_cache_enabled
                else 0
            ),
            block_cache_chunk=self.config.block_cache_chunk,
            degraded_allocation=self.config.dfs_degraded_allocation,
            gray=self.config.gray_policy(),
        )
        self.tracer: Tracer | None = Tracer() if self.config.tracing else None
        self.coordination = CoordinationService()
        self.tso = TimestampOracle(self.coordination)
        catalog = SharedCatalog()
        self.masters = [
            Master(f"master-{i}", self.dfs, self.coordination, catalog)
            for i in range(n_masters)
        ]
        self.servers: list[TabletServer] = []
        self.checkpoints: dict[str, CheckpointManager] = {}
        # Telemetry hooks are the cluster's own: its tracer is attached to
        # its machines, and its monitor observes this injector's faults.
        self.failures = FailureInjector()
        # Master-side view of tablet access heat, folded in from server
        # heartbeats.  It survives server crashes (the server's own heat
        # dies with its memory) so fast recovery can order bring-up.
        self.tablet_heat: dict[str, float] = {}
        # When each heat entry last belonged to an assigned tablet, in
        # makespan seconds — unassigned ("ghost") entries decay from here.
        self._heat_seen: dict[str, float] = {}
        # Heartbeat-reported replication lag across every hosted replica
        # (read_replicas gate; None otherwise so the seed path allocates
        # nothing).
        self.replica_lag_histogram: Histogram | None = (
            Histogram(HIST_REPLICA_LAG) if self.config.read_replicas else None
        )
        # Monitoring plane (config.monitoring gate): scrape + alerts +
        # flight recorder, ticked at the end of every heartbeat.  Pure
        # bookkeeping over existing state — it advances no clock, so the
        # seed path is byte-identical with the gate off and behavior-
        # identical with it on.  Imported lazily: the seed path never
        # loads the module.
        if self.config.monitoring:
            from repro.obs.monitor import ClusterMonitor

            self.monitor: "ClusterMonitor | None" = ClusterMonitor(self)
        else:
            self.monitor = None
        for machine in self.machines:
            self.attach(machine)
            self._start_server(machine)

    def attach(self, machine: Machine) -> None:
        """Hook ``machine`` — one of the cluster's own, or a client's —
        into this cluster's tracer (nothing to do when untraced)."""
        if self.tracer is not None:
            self.tracer.attach(machine)

    def _start_server(self, machine: Machine) -> TabletServer:
        server = TabletServer(
            f"ts-{machine.name}", machine, self.dfs, self.tso, self.config
        )
        self.servers.append(server)
        self.checkpoints[server.name] = CheckpointManager(self.dfs, server)
        self.master.register_server(server)
        self.failures.register(server.name, machine)
        return server

    def add_node(self, *, rebalance: bool = True) -> TabletServer:
        """Elastic scale-out: provision a machine, start a datanode and a
        tablet server on it, and (optionally) rebalance tablets onto it."""
        machine = Machine(
            f"node-{len(self.machines)}",
            rack=f"rack-{len(self.machines) % RACKS}",
            disk_model=self.config.disk,
            network=self.config.network,
        )
        self.machines.append(machine)
        self.attach(machine)
        self.dfs.add_machine(machine)
        server = self._start_server(machine)
        if rebalance:
            self.master.rebalance()
        return server

    def remove_node(self, name: str) -> None:
        """Elastic scale-back: gracefully move a server's tablets away and
        retire it (its datanode keeps serving existing replicas)."""
        self.master.decommission(name)
        server = self.server_by_name(name)
        server.serving = False

    def create_table(self, schema, **kwargs):
        """Convenience passthrough to the active master's DDL."""
        return self.master.create_table(schema, **kwargs)

    @property
    def master(self) -> Master:
        """The active (elected) master."""
        for master in self.masters:
            if master.is_active:
                return master
        return self.masters[0]

    @property
    def migrator(self) -> LiveMigrator:
        """The *active* master's migrator: the one mover of tablets
        between live servers (a deposed master's can no longer advance a
        handoff — its znode writes raise)."""
        return self.master.migrator

    def migrate_tablet(self, tablet_id: str, target: str):
        """Move one tablet: the fenced online handoff of
        :mod:`repro.core.migration` (unavailability bounded to the flip
        window).  ``live_migration`` decides whether servers *check* the
        leases it fences with, not how the tablet moves."""
        return self.migrator.migrate(tablet_id, target)

    def split_tablet(self, tablet_id: str, split_key: bytes | None = None):
        """Split a hot tablet in place (live-migration gate required)."""
        if not self.config.live_migration:
            raise ValueError("tablet splitting requires config.live_migration")
        return self.migrator.split(tablet_id, split_key)

    def resume_migrations(self) -> list[dict]:
        """Converge interrupted migrations/splits (run after a master
        failover or an aborted attempt)."""
        return self.migrator.resume()

    def balance(self) -> list[dict]:
        """One load-balancer tick over the heartbeat heat snapshot."""
        if not self.config.live_migration:
            return []
        return self.migrator.balance_tick(dict(self.tablet_heat))

    def server_by_name(self, name: str) -> TabletServer:
        """Tablet server handle by name."""
        for server in self.servers:
            if server.name == name:
                return server
        raise KeyError(name)

    def elapsed_makespan(self) -> float:
        """Cluster phase duration: max simulated clock across machines."""
        return makespan([machine.clock for machine in self.machines])

    def reset_clocks(self) -> None:
        """Zero every machine clock (between benchmark phases)."""
        for machine in self.machines:
            machine.clock.reset()
            machine.disk.invalidate_head()
        for server in self.servers:
            server.commit.reset_clock()

    def total_counters(self) -> dict[str, float]:
        """Cluster-wide counter totals."""
        totals = Counters()
        for machine in self.machines:
            totals.merge(machine.counters)
        return totals.snapshot()

    def kill_server(self, name: str, *, permanent: bool = False):
        """Crash a tablet server; optionally trigger permanent failover.

        Returns the :class:`~repro.core.master.FailoverReport` for
        permanent failures, else None.
        """
        server = self.server_by_name(name)
        server.crash()
        if permanent:
            return self.master.handle_permanent_failure(name)
        return None

    def kill_node(self, name: str) -> None:
        """Crash a whole machine: its tablet server *and* its datanode
        stop serving (they share the machine's ``alive`` flag).  The
        server's in-memory state is lost, as in a power failure."""
        server = self.server_by_name(name)
        server.crash()
        self.failures.kill(name)

    def restart_server(self, name: str, *, recover: bool = True):
        """Bring a crashed server (and its machine, if the whole node went
        down) back up, re-take its liveness znode when the old session
        expired, and optionally run checkpoint+redo recovery.

        Tablets that failed over to other servers while this one was down
        stay where they are — the restarted server rejoins empty-handed
        and picks up work at the next ``rebalance()`` (kill -> revive ->
        re-adopt).  Returns the :class:`~repro.core.recovery.RecoveryReport`
        when recovery ran, else None.

        Recovery is the parallel hot-first path: redo partitioned across
        ``recovery_workers`` virtual workers, tablets brought up
        hottest-first (using the heartbeat heat snapshot) and served as
        each one completes.  Once the redo finishes, the tablets the
        server still owns serve under a fresh lease, granted by the
        heartbeat's rule (an isolated server still bounces).
        """
        from repro.core.recovery import recover_server_parallel

        server = self.server_by_name(name)
        if not server.machine.alive:
            self.failures.revive(name)
        server.restart()
        master = self.master
        if not self.coordination.exists(f"/logbase/servers/{name}"):
            master.register_server(server)
        else:
            # Session survived the crash: just refresh the catalog handle.
            master.catalog.servers[name] = server
        # Ungated, a stale tablet would serve again; an orphan it adopts stays.
        live = set(master.live_servers()) - {name}
        for tablet_id, tablet in list(server.tablets.items()):
            if master.catalog.assignments.get(tablet_id) in live:
                server.unassign_tablet(tablet.tablet_id)
        if not recover:
            return None
        report = recover_server_parallel(
            server, self.checkpoints[name], heat=dict(self.tablet_heat)
        )
        self._renew_leases(master, only=name)
        return report

    def heartbeat(self) -> dict:
        """One cluster heartbeat tick, the periodic pass a real deployment
        runs continuously: expire the coordination sessions of dead
        servers (so the master's watches fire and — with auto-failover
        enabled — their tablets are adopted), and run the namenode's
        background re-replication when ``dfs_auto_rereplicate`` is on.

        With live migration enabled the tick also renews ownership leases
        for reachable live owners (a paused or partitioned server misses
        its renewals, so its lease lapses and it self-fences) and
        reconciles stale owners — a rejoined server quietly drops tablets
        the catalog has since moved elsewhere.

        Returns ``{"expired": [names], "rereplicated": count}``.
        """
        # One election lookup per tick: every step below acts for the
        # master elected when the tick began.
        master = self.master
        expired: list[str] = []
        for server in self.servers:
            session = master.catalog.server_sessions.get(server.name)
            if session is None or session.expired:
                continue
            if not server.machine.alive or not server.serving:
                master.expire_server(server.name)
                expired.append(server.name)
        # Fold live servers' access heat into the master-side snapshot
        # (fast recovery orders a crashed server's tablet bring-up by it).
        for server in self.servers:
            if server.machine.alive and server.serving:
                for tablet_id, value in server.heat.items():
                    if value > self.tablet_heat.get(tablet_id, 0.0):
                        self.tablet_heat[tablet_id] = value
        self._decay_ghost_heat(master)
        if self.config.live_migration:
            self._renew_leases(master)
            self._reconcile_stale_owners(master)
        replica_lags: dict[str, float] = {}
        if self.config.read_replicas:
            self._place_followers(master)
            replica_lags = self._tail_followers()
        created = 0
        if self.config.dfs_auto_rereplicate:
            created = self.dfs.heartbeat()
        tick = {
            "expired": expired,
            "rereplicated": created,
            "replica_lags": replica_lags,
        }
        if self.monitor is not None:
            tick["alerts_fired"] = self.monitor.tick(master=master)
        return tick

    def _decay_ghost_heat(self, master: Master) -> None:
        """Half-life decay for heat entries whose tablet no longer exists
        in the catalog (deleted, split away, or renamed by failover) —
        without it the balancer would chase ghosts forever."""
        now = self.elapsed_makespan()
        assignments = master.catalog.assignments
        for tablet_id in list(self.tablet_heat):
            if tablet_id in assignments:
                self._heat_seen[tablet_id] = now
                continue
            seen = self._heat_seen.setdefault(tablet_id, now)
            age = now - seen
            if age <= 0.0:
                continue
            decayed = self.tablet_heat[tablet_id] * 0.5 ** (age / HEAT_HALF_LIFE)
            if decayed < 0.5:
                del self.tablet_heat[tablet_id]
                self._heat_seen.pop(tablet_id, None)
            else:
                self.tablet_heat[tablet_id] = decayed
                self._heat_seen[tablet_id] = now

    def _renew_leases(self, master: Master, only: str | None = None) -> None:
        """Re-grant ownership leases to catalog owners the cluster can
        still reach (with ``only``, to that one server).  Tablets
        mid-handoff are skipped — the migrator's fence, not the
        heartbeat, decides when they serve again."""
        migrator = master.migrator
        for tablet_id, owner_name in master.catalog.assignments.items():
            if only is not None and owner_name != only:
                continue
            owner = master.catalog.servers.get(owner_name)
            if owner is None or not owner.machine.alive or not owner.serving:
                continue
            if owner.ownership.fenced(tablet_id):
                continue
            if migrator._majority_reachable(owner):
                owner.grant_lease(tablet_id)

    def _place_followers(self, master: Master) -> None:
        """Maintain the read-replica placement (read_replicas gate).

        For every assigned tablet, pick up to ``replicas_per_tablet``
        follower servers deterministically — the sorted live non-owners,
        rotated by the tablet's ordinal so replicas spread across the
        cluster — record the placement in the shared catalog (the client
        routes off it), and converge the servers: subscribe the desired
        followers under the tablet's current ownership epoch, tear down the
        rest.  An ownership change bumps the epoch and the migrator drops
        the tablet's placement, so this pass re-points the followers at
        the new owner — they never keep applying a deposed owner's
        post-fence records.
        """
        catalog = master.catalog
        live = [
            name
            for name in master.live_servers()
            if (server := catalog.servers.get(name)) is not None
            and server.machine.alive
            and server.serving
        ]
        desired_by_server: dict[str, dict[str, tuple]] = {name: {} for name in live}
        assignments = sorted(catalog.assignments.items())
        for ordinal, (tablet_id, owner_name) in enumerate(assignments):
            candidates = [name for name in live if name != owner_name]
            if not candidates or self.config.replicas_per_tablet < 1:
                catalog.followers.pop(tablet_id, None)
                continue
            rotated = (
                candidates[ordinal % len(candidates):]
                + candidates[: ordinal % len(candidates)]
            )
            desired = rotated[: self.config.replicas_per_tablet]
            catalog.followers[tablet_id] = desired
            epoch = catalog.owner_epochs.get(tablet_id, 0)
            try:
                tablet = master._tablet_by_id(tablet_id)
            except Exception:
                catalog.followers.pop(tablet_id, None)
                continue
            for name in desired:
                desired_by_server[name][tablet_id] = (tablet, owner_name, epoch)
        # Placements for tablets that no longer exist in the catalog.
        for tablet_id in list(catalog.followers):
            if tablet_id not in catalog.assignments:
                del catalog.followers[tablet_id]
        for name in live:
            server = catalog.servers[name]
            desired = desired_by_server.get(name, {})
            for tablet_id in list(server.replicas.followers):
                if tablet_id not in desired:
                    server.replicas.unfollow(tablet_id)
            for tablet_id, (tablet, owner_name, epoch) in desired.items():
                server.replicas.follow(tablet, owner_name, epoch)

    def _tail_followers(self) -> dict[str, float]:
        """One tail pass on every live follower server; records each
        replica's pre-pass staleness into the lag histogram and returns
        the worst lag per tablet (the heartbeat-reported lag)."""
        worst: dict[str, float] = {}
        for server in self.servers:
            if not server.machine.alive or not server.serving:
                continue
            if not server.replicas.followers:
                continue
            lags = server.tail_followed_logs()
            for tablet_id, lag in lags.items():
                if tablet_id not in worst or lag > worst[tablet_id]:
                    worst[tablet_id] = lag
                if self.replica_lag_histogram is not None and lag != float("inf"):
                    self.replica_lag_histogram.record(lag)
        return worst

    def _reconcile_stale_owners(self, master: Master) -> None:
        """Drop tablets from servers the catalog no longer assigns them
        to (e.g. a partitioned ex-owner rejoining after its tablet was
        migrated away).  Its lapsed lease already kept it from serving;
        this reclaims the memory."""
        assignments = master.catalog.assignments
        for server in self.servers:
            if not server.machine.alive or not server.serving:
                continue
            for tablet_id in list(server.tablets):
                if server.ownership.fenced(tablet_id):
                    continue
                if assignments.get(tablet_id) != server.name:
                    server.unassign_tablet(server.tablets[tablet_id].tablet_id)
