"""Elastic scaling tests (§1 desiderata: scale out and back on demand)."""

import pytest

from repro import ColumnGroup, LogBase, LogBaseConfig, TableSchema
from repro.errors import ServerDownError


@pytest.fixture
def loaded_db(schema, small_config):
    db = LogBase(n_nodes=3, config=small_config)
    db.create_table(schema, tablets_per_server=2)
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, 53_000_017)]
    for i, key in enumerate(keys):
        db.put("events", key, {"payload": {"body": f"v{i}".encode()}})
    return db, keys


def test_move_tablet_preserves_data(loaded_db):
    db, keys = loaded_db
    master = db.cluster.master
    tablet = master.tablets("events")[0]
    tablet_id = str(tablet.tablet_id)
    old_owner = master.locate("events", tablet.key_range.start or b"0")[0]
    new_owner = next(s.name for s in db.cluster.servers if s.name != old_owner)
    master.move_tablet(tablet_id, new_owner)
    assert master.locate("events", tablet.key_range.start or b"0")[0] == new_owner
    client = db.client(db.cluster.machines[1])
    for i, key in enumerate(keys):
        assert client.get("events", key, "payload") == {"body": f"v{i}".encode()}


def test_move_to_self_is_noop(loaded_db):
    db, _ = loaded_db
    master = db.cluster.master
    tablet = master.tablets("events")[0]
    owner = master.locate("events", tablet.key_range.start or b"0")[0]
    report = master.move_tablet(str(tablet.tablet_id), owner)
    assert report.records_scanned == 0


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
    assert dfs.open("/probe", machine).read_all() == payload
    assert machine.name not in block.locations
    assert machine.counters.get("dfs.corrupt_replicas") == 1
