"""Master tests: catalog, routing, liveness, election, permanent failover."""

import pytest

from repro import ColumnGroup, LogBaseConfig, TableSchema
from repro.coordination.election import LeaderElection
from repro.core.cluster import LogBaseCluster
from repro.errors import TableAlreadyExists, TableNotFound, TabletNotFound
from repro.sim.metrics import GAUGE_SERVER_UP


@pytest.fixture
def cluster(schema):
    c = LogBaseCluster(n_nodes=4, config=LogBaseConfig(), n_masters=2)
    c.create_table(schema, tablets_per_server=2)
    return c


def test_active_master_elected(cluster):
    assert cluster.master.is_active
    actives = [m for m in cluster.masters if m.is_active]
    assert len(actives) == 1


def test_standby_takes_over(cluster):
    active = cluster.master
    standby = next(m for m in cluster.masters if m is not active)
    active.session.expire()
    assert standby.is_active
    assert cluster.master is standby


def test_create_table_spreads_tablets(cluster):
    master = cluster.master
    tablets = master.tablets("events")
    assert len(tablets) == 8  # 4 servers * 2 tablets each
    owners = {master.locate("events", t.key_range.start or b"0")[0] for t in tablets}
    assert len(owners) == 4


def test_duplicate_table_rejected(cluster, schema):
    with pytest.raises(TableAlreadyExists):
        cluster.create_table(schema)


def test_unknown_table(cluster):
    with pytest.raises(TableNotFound):
        cluster.master.schema("missing")
    with pytest.raises(TableNotFound):
        cluster.master.tablets("missing")


def test_locate_returns_covering_tablet(cluster):
    server_name, tablet = cluster.master.locate("events", b"000500000000")
    assert tablet.covers(b"000500000000")
    assert server_name in [s.name for s in cluster.servers]


def test_locate_miss(cluster, schema):
    # Locate on a table that exists but a tablet gap cannot occur: ranges
    # cover the whole keyspace, so any key resolves.
    name, _ = cluster.master.locate("events", b"\xff" * 12)
    assert name


def test_live_servers_tracks_sessions(cluster):
    master = cluster.master
    assert len(master.live_servers()) == 4
    master.expire_server(cluster.servers[0].name)
    assert len(master.live_servers()) == 3


def test_permanent_failover_moves_tablets_and_data(cluster):
    master = cluster.master
    client_machine = cluster.machines[1]
    from repro.core.client import Client

    client = Client(master, client_machine)
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, 97_000_019)]
    for key in keys:
        client.put("events", key, {"payload": {"body": b"v-" + key}})

    victim = cluster.servers[0]
    victim_tablets = [t for t in master.tablets("events")
                      if master.locate("events", t.key_range.start or b"0")[0] == victim.name]
    assert victim_tablets

    victim.crash()
    report = master.handle_permanent_failure(victim.name)
    assert set(report.reassigned) == {str(t.tablet_id) for t in victim_tablets}
    assert all(target != victim.name for target in report.reassigned.values())

    # Every record is still readable after the move.
    client.invalidate_cache()
    for key in keys:
        row = client.get("events", key, "payload")
        assert row == {"body": b"v-" + key}


def test_failover_requires_known_server(cluster):
    from repro.errors import ServerDownError

    with pytest.raises(ServerDownError):
        cluster.master.handle_permanent_failure("ghost")


def test_kill_server_helper(cluster):
    report = cluster.kill_server(cluster.servers[1].name, permanent=True)
    assert report is not None
    assert report.failed_server == cluster.servers[1].name


def test_auto_failover_on_session_expiry(cluster):
    """§3.3: the master monitors server liveness via the coordination
    service; an expired liveness session triggers failover by itself."""
    master = cluster.master
    master.enable_auto_failover()
    client_machine = cluster.machines[1]
    from repro.core.client import Client

    client = Client(master, client_machine)
    key = b"000000000123"
    client.put("events", key, {"payload": {"body": b"v"}})
    victim_name = master.locate("events", key)[0]
    cluster.server_by_name(victim_name).crash()
    # The liveness session expiring (missed heartbeats) IS the detection.
    master.expire_server(victim_name)
    assert victim_name not in master.live_servers()
    new_owner = master.locate("events", key)[0]
    assert new_owner != victim_name
    client.invalidate_cache()
    assert client.get("events", key, "payload") == {"body": b"v"}


def test_auto_failover_watches_late_registrations(cluster):
    master = cluster.master
    master.enable_auto_failover()
    from repro.core.cluster import LogBaseCluster  # noqa: F401

    new_server = None
    # Register a new server after enabling auto failover.
    from repro.core.tablet_server import TabletServer
    from repro.sim.machine import Machine

    machine = Machine("late-node", network=cluster.machines[0].network)
    cluster.machines.append(machine)
    cluster.dfs.add_machine(machine)
    new_server = TabletServer("ts-late", machine, cluster.dfs, cluster.tso, cluster.config)
    master.register_server(new_server)
    assert "ts-late" in master.live_servers()
    new_server.crash()
    master.expire_server("ts-late")
    # Watch fired; the dead server left the membership automatically.
    assert "ts-late" not in master.live_servers()
    assert "ts-late" not in master._servers


@pytest.mark.parametrize(
    "config",
    [LogBaseConfig.with_fault_tolerance(), LogBaseConfig.production()],
    ids=["fault-tolerance", "production"],
)
def test_a_revived_server_does_not_serve_tablets_failed_over_while_it_was_down(
    schema, config
):
    """A client whose cache still names the dead owner writes through the
    revived server only if that server kept the tablet: the write is then
    acked where no reader looks."""
    from repro import LogBase

    db = LogBase(n_nodes=3, config=config)
    db.create_table(schema, tablets_per_server=1)
    master = db.cluster.master
    master.enable_auto_failover()
    stale, fresh = db.client(), db.client()
    key = b"000000000123"
    stale.put_raw("events", key, "payload", b"before")
    victim = master.locate("events", key)[0]
    db.cluster.kill_node(victim)
    db.cluster.heartbeat()  # session expiry: the tablet fails over
    assert master.locate("events", key)[0] != victim
    db.cluster.restart_server(victim)
    stale.put_raw("events", key, "payload", b"after")
    db.cluster.heartbeat()  # read replicas catch up
    assert fresh.get_raw("events", key, "payload") == b"after"


# -- the heartbeat's master ----------------------------------------------------


def count_leader_lookups(monkeypatch) -> list[int]:
    """Every ``LeaderElection.leader`` call adds one to the returned tally."""
    calls = [0]
    leader = LeaderElection.leader

    def counted(self):
        calls[0] += 1
        return leader(self)

    monkeypatch.setattr(LeaderElection, "leader", counted)
    return calls


@pytest.mark.parametrize(
    "config",
    [
        LogBaseConfig.with_fault_tolerance(monitoring=True),
        LogBaseConfig.production(),
    ],
    ids=["fault-tolerance+monitoring", "production"],
)
def test_an_idle_heartbeat_resolves_the_master_once(monkeypatch, schema, config):
    """A tick elects through the coordination service once (a znode
    ``get_children`` plus a ``get``), not once per server and helper."""
    cluster = LogBaseCluster(n_nodes=4, config=config)
    cluster.create_table(schema)
    cluster.heartbeat()  # placements and leases settle
    calls = count_leader_lookups(monkeypatch)
    for _ in range(3):
        cluster.heartbeat()
    assert calls[0] == 3


def test_a_scraping_heartbeat_resolves_the_master_once(monkeypatch, schema):
    """The monitor's scrape reads the assignments of the master the tick
    already resolved instead of electing again."""
    config = LogBaseConfig.production(monitor_scrape_interval=0.0)
    cluster = LogBaseCluster(n_nodes=4, config=config)
    cluster.create_table(schema)
    cluster.heartbeat()
    up = cluster.monitor.store.series(cluster.servers[0].name, GAUGE_SERVER_UP)
    scrapes = len(up)
    calls = count_leader_lookups(monkeypatch)
    cluster.heartbeat()
    assert len(up) == scrapes + 1  # the tick scraped
    assert calls[0] == 1


def test_a_heartbeat_after_a_master_failover_uses_the_new_master(monkeypatch, schema):
    cluster = LogBaseCluster(n_nodes=4, config=LogBaseConfig.production(), n_masters=2)
    cluster.create_table(schema)
    seen = []
    for helper in ("_decay_ghost_heat", "_renew_leases", "_place_followers"):
        original = getattr(LogBaseCluster, helper)

        def spy(self, master, *args, _original=original, **kwargs):
            seen.append(master)
            return _original(self, master, *args, **kwargs)

        monkeypatch.setattr(LogBaseCluster, helper, spy)
    first = cluster.master
    cluster.heartbeat()
    assert seen == [first] * 3
    first.session.expire()
    second = cluster.master
    assert second is not first and second.is_active
    seen.clear()
    cluster.heartbeat()
    assert seen == [second] * 3
    # The new master's tick still renews every reachable owner's lease.
    for tablet_id, owner in cluster.master.catalog.assignments.items():
        assert cluster.server_by_name(owner).ownership.lease_valid(tablet_id)
