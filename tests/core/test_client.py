"""Client tests: routing cache, typed API, scans, tuple reconstruction."""

import pytest

from repro import LogBase
from repro.core.client import Client


@pytest.fixture
def client(db):
    return db.client()


def test_put_get_roundtrip(client):
    client.put("events", b"000000000001", {"payload": {"body": b"hello"}})
    assert client.get("events", b"000000000001", "payload") == {"body": b"hello"}


def test_get_missing_returns_none(client):
    assert client.get("events", b"000000000404", "payload") is None


def test_put_multiple_groups_and_reconstruct(client):
    client.put(
        "events",
        b"000000000002",
        {
            "payload": {"body": b"data"},
            "meta": {"source": b"web", "kind": b"click"},
        },
    )
    row = client.get_row("events", b"000000000002")
    assert row == {
        "payload": {"body": b"data"},
        "meta": {"source": b"web", "kind": b"click"},
    }


def test_get_row_missing(client):
    assert client.get_row("events", b"000000000404") is None


def test_historical_get(client):
    t1 = client.put("events", b"000000000003", {"payload": {"body": b"v1"}})
    client.put("events", b"000000000003", {"payload": {"body": b"v2"}})
    assert client.get("events", b"000000000003", "payload", as_of=t1) == {"body": b"v1"}
    assert client.get("events", b"000000000003", "payload") == {"body": b"v2"}


def test_delete_single_group(client):
    client.put(
        "events",
        b"000000000004",
        {"payload": {"body": b"x"}, "meta": {"source": b"s", "kind": b"k"}},
    )
    client.delete("events", b"000000000004", "payload")
    assert client.get("events", b"000000000004", "payload") is None
    assert client.get("events", b"000000000004", "meta") is not None


def test_delete_all_groups(client):
    client.put(
        "events",
        b"000000000005",
        {"payload": {"body": b"x"}, "meta": {"source": b"s", "kind": b"k"}},
    )
    client.delete("events", b"000000000005")
    assert client.get_row("events", b"000000000005") is None


def test_scan_across_tablet_boundaries(client, db):
    # Keys spread across all three servers' tablets.
    keys = [str(k).zfill(12).encode() for k in range(0, 1_800_000_000, 300_000_001)]
    for i, key in enumerate(keys):
        client.put("events", key, {"payload": {"body": f"v{i}".encode()}})
    rows = client.scan("events", "payload", b"000000000000", b"999999999999")
    assert [key for key, _ in rows] == sorted(keys)


def test_scan_returns_each_row_once_with_several_tablets_per_server(schema):
    db = LogBase(n_nodes=2)
    db.create_table(schema, tablets_per_server=2)
    client = db.client()
    keys = [str(k).zfill(12).encode() for k in range(0, 2_000_000_000, 250_000_000)]
    for key in keys:
        client.put("events", key, {"payload": {"body": b"v"}})
    rows = client.scan("events", "payload", b"000000000000", b"999999999999")
    assert [key for key, _ in rows] == keys


def test_scan_respects_bounds(client):
    for i in range(5):
        key = str(i * 100).zfill(12).encode()
        client.put("events", key, {"payload": {"body": b"v"}})
    rows = client.scan("events", "payload", b"000000000100", b"000000000300")
    assert [key for key, _ in rows] == [b"000000000100", b"000000000200"]


def test_location_cache_skips_master_after_first_call(client, db):
    client.put("events", b"000000000009", {"payload": {"body": b"v"}})
    machine = db.cluster.machines[0]
    # Subsequent ops should not pay the metadata RPC again: compare the
    # client-side clock cost of two identical reads.
    client.get("events", b"000000000009", "payload")
    before = machine.clock.now
    client.get("events", b"000000000009", "payload")
    second_cost = machine.clock.now - before
    assert second_cost < 0.01


def test_invalidate_cache_allows_relookup(client):
    client.put("events", b"000000000010", {"payload": {"body": b"v"}})
    client.invalidate_cache("events")
    assert client.get("events", b"000000000010", "payload") == {"body": b"v"}


def test_raw_api_roundtrip(client):
    client.put_raw("events", b"000000000011", "payload", b"opaque-bytes")
    assert client.get_raw("events", b"000000000011", "payload") == b"opaque-bytes"


def test_last_op_seconds_updated(client):
    client.put("events", b"000000000012", {"payload": {"body": b"v"}})
    assert client.last_op_seconds > 0


def test_stale_location_cache_retries_after_tablet_move(db):
    """After a tablet moves, a client holding the old location transparently
    refreshes its cache and retries (§3.3 stale-cache behaviour)."""
    client = db.client()
    key = b"000000000055"
    client.put("events", key, {"payload": {"body": b"v"}})
    master = db.cluster.master
    _, tablet = master.locate("events", key)
    old_owner = master.locate("events", key)[0]
    new_owner = next(s.name for s in db.cluster.servers if s.name != old_owner)
    db.cluster.migrate_tablet(str(tablet.tablet_id), new_owner)
    # The client's cache still points at old_owner; ops must still work.
    assert client.get("events", key, "payload") == {"body": b"v"}
    client.put("events", key, {"payload": {"body": b"v2"}})
    assert client.get("events", key, "payload") == {"body": b"v2"}
