"""Elastic scaling tests (§1 desiderata: scale out and back on demand)."""

import pytest

from repro import ColumnGroup, LogBase, LogBaseConfig, TableSchema
from repro.chaos.invariants import check_single_owner
from repro.errors import LogBaseError, ServerDownError
from repro.sim.failure import CP_ADOPT_MID, FaultPlan, fault_plan


def _acked_rows(db, step):
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, step)]
    for i, key in enumerate(keys):
        db.put("events", key, {"payload": {"body": f"v{i}".encode()}})
    return keys


@pytest.fixture
def loaded_db(schema, small_config):
    db = LogBase(n_nodes=3, config=small_config)
    db.create_table(schema, tablets_per_server=2)
    return db, _acked_rows(db, 53_000_017)


def test_move_tablet_preserves_data(loaded_db):
    db, keys = loaded_db
    master = db.cluster.master
    tablet = master.tablets("events")[0]
    tablet_id = str(tablet.tablet_id)
    old_owner = master.locate("events", tablet.key_range.start or b"0")[0]
    new_owner = next(s.name for s in db.cluster.servers if s.name != old_owner)
    db.cluster.migrate_tablet(tablet_id, new_owner)
    assert master.locate("events", tablet.key_range.start or b"0")[0] == new_owner
    client = db.client(db.cluster.machines[1])
    for i, key in enumerate(keys):
        assert client.get("events", key, "payload") == {"body": f"v{i}".encode()}


def test_scale_out_rebalances_tablets(loaded_db):
    db, keys = loaded_db
    new_server = db.cluster.add_node()
    master = db.cluster.master
    owners = [
        master.locate("events", t.key_range.start or b"0")[0]
        for t in master.tablets("events")
    ]
    # The new server took a fair share (6 tablets over 4 servers -> >= 1).
    assert new_server.name in owners
    counts = {name: owners.count(name) for name in set(owners)}
    assert max(counts.values()) - min(counts.values()) <= 1
    # All data survived the moves.
    client = db.client(db.cluster.machines[0])
    client.invalidate_cache()
    for i, key in enumerate(keys):
        assert client.get("events", key, "payload") == {"body": f"v{i}".encode()}


def test_new_node_serves_writes(loaded_db):
    db, _ = loaded_db
    new_server = db.cluster.add_node()
    master = db.cluster.master
    moved = next(
        t for t in master.tablets("events")
        if master.locate("events", t.key_range.start or b"0")[0] == new_server.name
    )
    key = moved.key_range.start or b"000000000001"
    client = db.client(db.cluster.machines[0])
    client.put("events", key, {"payload": {"body": b"on-new-node"}})
    # The new server owns the tablet and served the write.
    assert new_server.read("events", key, "payload") is not None
    assert client.get("events", key, "payload") == {"body": b"on-new-node"}


def test_scale_back_decommission(loaded_db):
    db, keys = loaded_db
    victim = db.cluster.servers[0].name
    db.cluster.remove_node(victim)
    master = db.cluster.master
    assert victim not in master.live_servers()
    owners = {
        master.locate("events", t.key_range.start or b"0")[0]
        for t in master.tablets("events")
    }
    assert victim not in owners
    client = db.client(db.cluster.machines[1])
    client.invalidate_cache()
    for i, key in enumerate(keys):
        assert client.get("events", key, "payload") == {"body": f"v{i}".encode()}


def test_cannot_decommission_last_server(schema):
    db = LogBase(n_nodes=1, config=LogBaseConfig(replication=1))
    db.create_table(schema)
    db.put("events", b"000000000001", {"payload": {"body": b"v"}})
    with pytest.raises(ServerDownError):
        db.cluster.master.decommission(db.cluster.servers[0].name)


def test_rebalance_idempotent(loaded_db):
    db, _ = loaded_db
    assert db.cluster.master.rebalance() == {}  # already balanced
    db.cluster.add_node(rebalance=False)
    first = db.cluster.master.rebalance()
    assert first  # something moved
    assert db.cluster.master.rebalance() == {}  # now stable


def test_scale_out_after_writes_keeps_versions(loaded_db):
    """Historical versions survive migration (the split replays every
    committed version, not just the latest)."""
    db, keys = loaded_db
    key = keys[0]
    first_ts = db.put("events", key, {"payload": {"body": b"v-new"}})
    db.put("events", key, {"payload": {"body": b"v-newest"}})
    db.cluster.add_node()
    client = db.client(db.cluster.machines[0])
    client.invalidate_cache()
    assert client.get("events", key, "payload", as_of=first_ts) == {"body": b"v-new"}
    assert client.get("events", key, "payload") == {"body": b"v-newest"}

def test_scaled_out_datanode_keeps_replica_checksums():
    # A datanode started by scale-out must checksum like the ones the
    # cluster was built with, or corruption on it is served as data.
    db = LogBase(n_nodes=3, config=LogBaseConfig.with_fault_tolerance())
    machine = db.cluster.add_node(rebalance=False).machine
    dfs = db.cluster.dfs
    payload = b"placed on the new node"
    dfs.create("/probe", machine).append(payload)
    block = dfs.namenode.get_file("/probe").blocks[0]
    assert block.locations[0] == machine.name  # first replica is writer-local
    dfs.datanode(machine.name).corrupt_replica(block.block_id)
    assert not dfs.datanode(machine.name).verify_replica(block.block_id)
    assert dfs.open("/probe", machine).read_all(verified=True) == payload
    assert machine.name not in block.locations
    assert machine.counters.get("dfs.corrupt_replicas") == 1


# -- one mover: every elastic move is the fenced, resumable handoff ------------


def test_interrupted_scale_out_keeps_a_single_owner(schema):
    """An elastic move that dies mid-re-home must leave what a live
    migration leaves: one willing owner and an intent to resume from."""
    db = LogBase(
        n_nodes=3, config=LogBaseConfig.with_live_migration(segment_size=16 * 1024)
    )
    db.create_table(schema, tablets_per_server=2)
    keys = _acked_rows(db, 23_000_017)
    db.cluster.add_node(rebalance=False)
    db.cluster.heartbeat()

    def die(ctx):
        raise LogBaseError("interrupted mid-re-home")

    plan = FaultPlan()
    plan.add(CP_ADOPT_MID, die, hits=5)
    with fault_plan(plan):
        with pytest.raises(LogBaseError):
            db.cluster.master.rebalance()
    assert len(plan.fired) == 1
    assert check_single_owner(db) == []
    assert len(db.cluster.migrator.pending_migrations()) == 1
    outcomes = db.cluster.resume_migrations()
    assert [o["outcome"] for o in outcomes] == ["aborted"]
    db.cluster.heartbeat()
    assert check_single_owner(db) == []
    client = db.client(db.cluster.machines[1])
    for i, key in enumerate(keys):
        assert client.get("events", key, "payload") == {"body": f"v{i}".encode()}
    # Nothing was lost, so the operator's retry simply succeeds.
    assert db.cluster.master.rebalance()
    assert check_single_owner(db) == []


def test_nothing_is_left_under_the_splits_directory(loaded_db):
    db, keys = loaded_db
    cluster, dfs = db.cluster, db.cluster.dfs
    tablet_id, source = sorted(cluster.master.catalog.assignments.items())[0]
    target = next(s.name for s in cluster.servers if s.name != source)
    cluster.migrate_tablet(tablet_id, target)
    assert dfs.list_files("/logbase/splits") == []
    cluster.add_node()
    assert dfs.list_files("/logbase/splits") == []
    cluster.remove_node(cluster.servers[0].name)
    assert dfs.list_files("/logbase/splits") == []
    # Failover alone stages split files, and deletes them once the last
    # orphan has flipped.
    report = cluster.kill_server(cluster.servers[1].name, permanent=True)
    assert report.reassigned and report.recovery
    assert cluster.total_counters()["recovery.splits_persisted"] >= 1
    assert dfs.list_files("/logbase/splits") == []
    client = db.client(cluster.machines[2])
    for i, key in enumerate(keys):
        assert client.get("events", key, "payload") == {"body": f"v{i}".encode()}


@pytest.mark.parametrize("how", ["migrate_tablet", "add_node"])
def test_a_move_writes_the_tablet_once(schema, how):
    """A moving tablet is re-homed once, never staged: at replication 3
    the whole cluster writes three bytes per byte that lands in the
    target's log (a split-file detour made it six, and nine when the
    source's other tablet was split out too)."""
    db = LogBase(
        n_nodes=4, config=LogBaseConfig.with_read_replicas(segment_size=1024 * 1024)
    )
    assert db.cluster.config.replication == 3
    db.create_table(schema, tablets_per_server=2)
    for k in range(0, 2_000_000_000, 5_000_011):
        db.put("events", str(k).zfill(12).encode(), {"payload": {"body": b"x" * 256}})
    cluster = db.cluster
    cluster.heartbeat()
    written = cluster.total_counters()["disk.bytes_written"]
    if how == "add_node":
        target = cluster.add_node()
        rehomed = target.log.total_bytes()
    else:
        tablet_id, source = sorted(cluster.master.catalog.assignments.items())[0]
        target = next(s for s in cluster.servers if s.name != source)
        before = target.log.total_bytes()
        assert cluster.migrate_tablet(tablet_id, target.name).completed
        rehomed = target.log.total_bytes() - before
    assert rehomed > 10_000
    delta = cluster.total_counters()["disk.bytes_written"] - written
    assert delta <= 3.1 * rehomed
