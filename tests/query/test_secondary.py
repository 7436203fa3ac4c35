"""Tests for secondary indexes (the paper's §5 future-work extension)."""

import pytest

from repro.core.schema import encode_group_value
from repro.query.secondary import SecondaryIndex, SecondaryIndexManager


class TestSecondaryIndex:
    def test_write_then_equal_lookup(self):
        index = SecondaryIndex("t", "g", "color")
        index.apply_write(b"k1", 1, b"red")
        index.apply_write(b"k2", 2, b"red")
        index.apply_write(b"k3", 3, b"blue")
        assert index.lookup_equal(b"red") == [b"k1", b"k2"]
        assert index.lookup_equal(b"blue") == [b"k3"]
        assert index.lookup_equal(b"green") == []

    def test_update_moves_key_between_values(self):
        index = SecondaryIndex("t", "g", "color")
        index.apply_write(b"k", 1, b"red")
        index.apply_write(b"k", 2, b"blue")
        assert index.lookup_equal(b"red") == []
        assert index.lookup_equal(b"blue") == [b"k"]
        assert len(index) == 1

    def test_stale_apply_ignored(self):
        """Redo replays may arrive out of order; older versions must not
        clobber the indexed current value."""
        index = SecondaryIndex("t", "g", "color")
        index.apply_write(b"k", 5, b"new")
        index.apply_write(b"k", 2, b"old")
        assert index.lookup_equal(b"new") == [b"k"]
        assert index.lookup_equal(b"old") == []

    def test_delete_removes_key(self):
        index = SecondaryIndex("t", "g", "color")
        index.apply_write(b"k", 1, b"red")
        index.apply_delete(b"k")
        assert index.lookup_equal(b"red") == []
        assert len(index) == 0
        assert index.distinct_values == 0

    def test_range_lookup_value_ordered(self):
        index = SecondaryIndex("t", "g", "age")
        for i, key in enumerate((b"k1", b"k2", b"k3", b"k4")):
            index.apply_write(key, i + 1, str(20 + i * 10).zfill(3).encode())
        found = list(index.lookup_range(b"025", b"045"))
        assert found == [(b"030", b"k2"), (b"040", b"k3")]

    def test_memory_accounting(self):
        index = SecondaryIndex("t", "g", "c")
        assert index.memory_bytes() == 0
        index.apply_write(b"k", 1, b"v")
        assert index.memory_bytes() > 0


class TestSecondaryIndexManager:
    def test_create_is_idempotent(self):
        manager = SecondaryIndexManager()
        a = manager.create("t", "g", "c")
        b = manager.create("t", "g", "c")
        assert a is b
        assert len(manager.indexes()) == 1

    def test_on_write_decodes_columns(self):
        manager = SecondaryIndexManager()
        manager.create("t", "g", "color")
        payload = encode_group_value({"color": b"red", "size": b"XL"})
        manager.on_write("t", "g", b"k", 1, payload)
        assert manager.get("t", "color").lookup_equal(b"red") == [b"k"]

    def test_opaque_payloads_skipped(self):
        manager = SecondaryIndexManager()
        manager.create("t", "g", "color")
        manager.on_write("t", "g", b"k", 1, b"\xff\xfenot-column-encoded")
        assert manager.get("t", "color").lookup_equal(b"red") == []

    def test_unrelated_groups_ignored(self):
        manager = SecondaryIndexManager()
        manager.create("t", "g1", "c")
        payload = encode_group_value({"c": b"v"})
        manager.on_write("t", "g2", b"k", 1, payload)
        assert manager.get("t", "c").lookup_equal(b"v") == []

    def test_has_any_guard(self):
        manager = SecondaryIndexManager()
        assert not manager.has_any()
        manager.create("t", "g", "c")
        assert manager.has_any()


class TestServerIntegration:
    @pytest.fixture
    def db(self, db):
        return db  # reuse conftest: events(payload{body}, meta{source,kind})

    def test_registration_switches_write_maintenance_on_exactly(
        self, db, monkeypatch
    ):
        """Writes feed the secondary indexes exactly when one is
        registered: never before, once per written group after, and still
        after a crash and restart (which drops contents, not
        registrations)."""
        fed = []
        monkeypatch.setattr(
            SecondaryIndexManager, "on_write", lambda self, *args: fed.append(args)
        )
        row = {"meta": {"source": b"web", "kind": b"click"}, "payload": {"body": b"x"}}
        db.put("events", b"000000000001", row)
        assert fed == []
        owner_name, _ = db.cluster.master.locate("events", b"000000000001")
        server = db.cluster.master.server(owner_name)
        server.create_secondary_index("events", "meta", "source")
        fed.clear()  # the backfill
        db.put("events", b"000000000001", row)
        assert sorted(args[1] for args in fed) == ["meta", "payload"]
        fed.clear()
        tablets = list(server.tablets.values())
        server.crash()
        server.restart()
        for tablet in tablets:
            server.assign_tablet(tablet)
        assert server.secondary.has_any()
        server.write("events", b"000000000001", {"meta": b"\x00"})
        assert [args[1] for args in fed] == ["meta"]

    def test_index_maintained_on_put(self, db):
        engine_server = db.cluster.servers
        for server in engine_server:
            server.create_secondary_index("events", "meta", "source")
        db.put("events", b"000000000001",
               {"meta": {"source": b"web", "kind": b"click"}})
        db.put("events", b"000000000002",
               {"meta": {"source": b"app", "kind": b"view"}})
        hits = [
            key
            for server in engine_server
            for key in server.secondary.get("events", "source").lookup_equal(b"web")
        ]
        assert hits == [b"000000000001"]

    def test_backfill_on_create(self, db):
        db.put("events", b"000000000003",
               {"meta": {"source": b"web", "kind": b"click"}})
        for server in db.cluster.servers:
            server.create_secondary_index("events", "meta", "source")
        hits = [
            key
            for server in db.cluster.servers
            for key in server.secondary.get("events", "source").lookup_equal(b"web")
        ]
        assert hits == [b"000000000003"]

    def test_delete_clears_secondary(self, db):
        for server in db.cluster.servers:
            server.create_secondary_index("events", "meta", "source")
        db.put("events", b"000000000004",
               {"meta": {"source": b"web", "kind": b"click"}})
        db.delete("events", b"000000000004", "meta")
        hits = [
            key
            for server in db.cluster.servers
            for key in server.secondary.get("events", "source").lookup_equal(b"web")
        ]
        assert hits == []

    def test_rebuild_after_recovery(self, db):
        from repro.core.recovery import recover_server

        for server in db.cluster.servers:
            server.create_secondary_index("events", "meta", "source")
        db.put("events", b"000000000005",
               {"meta": {"source": b"api", "kind": b"poll"}})
        owner_name, _ = db.cluster.master.locate("events", b"000000000005")
        server = db.cluster.master.server(owner_name)
        tablets = list(server.tablets.values())
        server.crash()
        server.restart()
        for tablet in tablets:
            server.assign_tablet(tablet)
        recover_server(server, db.cluster.checkpoints[server.name])
        server.create_secondary_index("events", "meta", "source")
        assert server.secondary.get("events", "source").lookup_equal(b"api") == [
            b"000000000005"
        ]
