"""Facade tests: the LogBase object end to end."""

import pytest

from repro import ColumnGroup, LogBase, LogBaseConfig, TableSchema


def test_put_get_through_facade(db):
    db.put("events", b"000000000001", {"payload": {"body": b"hi"}})
    assert db.get("events", b"000000000001", "payload") == {"body": b"hi"}


def test_transactions_through_facade(db):
    txn = db.begin()
    txn.write("events", b"000000000002", "payload", {"body": b"txn"})
    commit_ts = txn.commit()
    assert commit_ts > 0
    assert db.get("events", b"000000000002", "payload") == {"body": b"txn"}


def test_compact_all_preserves_data(db):
    for i in range(20):
        key = str(i * 90_000_000).zfill(12).encode()
        db.put("events", key, {"payload": {"body": f"v{i}".encode()}})
    results = db.compact_all()
    assert len(results) == 3
    assert db.get("events", b"000000000000", "payload") == {"body": b"v0"}


def test_checkpoint_all_writes_blocks(db):
    db.put("events", b"000000000003", {"payload": {"body": b"v"}})
    db.checkpoint_all()
    for server in db.cluster.servers:
        assert db.cluster.checkpoints[server.name].has_checkpoint()


def test_multiple_tables(db):
    other = TableSchema("other", "id", (ColumnGroup("data", ("x",)),))
    db.create_table(other)
    db.put("other", b"000000000001", {"data": {"x": b"1"}})
    db.put("events", b"000000000001", {"payload": {"body": b"2"}})
    assert db.get("other", b"000000000001", "data") == {"x": b"1"}
    assert db.get("events", b"000000000001", "payload") == {"body": b"2"}


def test_scan_facade(db):
    for i in range(3):
        key = str(i * 600_000_000).zfill(12).encode()
        db.put("events", key, {"payload": {"body": b"v"}})
    rows = db.scan("events", "payload", b"", b"999999999999")
    assert len(rows) == 3


def test_single_node_cluster_works():
    small = LogBase(n_nodes=1, config=LogBaseConfig(replication=1))
    small.create_table(TableSchema("t", "id", (ColumnGroup("g", ("v",)),)))
    small.put("t", b"000000000001", {"g": {"v": b"x"}})
    assert small.get("t", b"000000000001", "g") == {"v": b"x"}


def test_config_validation():
    with pytest.raises(ValueError):
        LogBaseConfig(index_kind="btree").validate()
    with pytest.raises(ValueError):
        LogBaseConfig(replication=0).validate()
    with pytest.raises(ValueError):
        LogBaseConfig(max_versions=0).validate()


def test_facade_scan_as_of(db):
    t1 = db.put("events", b"000000000050", {"payload": {"body": b"v1"}})
    db.put("events", b"000000000050", {"payload": {"body": b"v2"}})
    rows = db.scan("events", "payload", b"", b"z", as_of=t1)
    assert rows == [(b"000000000050", {"body": b"v1"})]


def test_facade_unknown_table_raises(db):
    from repro.errors import TableNotFound

    with pytest.raises(TableNotFound):
        db.get("nope", b"000000000001", "g")
