"""Server-side group commit: every server's coordinator, the retired
config gate, submit_write visibility, and coordinator lifecycle across
crash/restart and clock resets."""

import pytest

from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.errors import ServerDownError


def make_key(value: int) -> bytes:
    return str(value).zfill(12).encode()


@pytest.fixture
def gc_db(schema):
    db = LogBase(n_nodes=3, config=LogBaseConfig(segment_size=16 * 1024))
    db.create_table(schema)
    return db


def server_for(db, key):
    name, _tablet = db.cluster.master.locate("events", key)
    return db.cluster.master.server(name)


def test_group_commit_is_a_retired_field():
    assert LogBaseConfig().group_commit is False
    assert not hasattr(LogBaseConfig, "with_group_commit")
    with pytest.raises(ValueError, match="group_commit"):
        LogBaseConfig(group_commit=True).validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"group_commit_batch": 0},
        {"group_commit_max_delay": -0.001},
        {"group_commit_max_bytes": 0},
    ],
)
def test_validate_rejects_bad_group_commit_settings(kwargs):
    # The knobs are gone (coordinator defaults): setting one is an error.
    with pytest.raises(TypeError):
        LogBaseConfig(**kwargs).validate()


def test_every_server_has_a_coordinator(db):
    assert all(server.commit is not None for server in db.cluster.servers)
    key = make_key(1)
    server = server_for(db, key)
    future = server.submit_write("events", key, {"payload": b"v"})
    server.commit.drain()
    assert future.acked
    assert server.read("events", key, "payload")[1] == b"v"


def _submit_phase(db) -> float:
    """Eight submissions to one server, drained; the phase's end time."""
    server = server_for(db, make_key(0))
    futures = [
        server.submit_write("events", make_key(i), {"payload": b"v%d" % i})
        for i in range(8)
    ]
    server.commit.drain()
    assert all(f.acked for f in futures)
    return max(f.completion_time for f in futures)


def test_reset_clocks_idles_the_commit_pipeline(schema):
    """After ``reset_clocks()`` the first flush must not wait on the
    previous phase's pipeline: the phase ends when a fresh cluster's
    does."""
    used = LogBase(n_nodes=3, config=LogBaseConfig(segment_size=16 * 1024))
    used.create_table(schema)
    _submit_phase(used)
    used.cluster.reset_clocks()
    fresh = LogBase(n_nodes=3, config=LogBaseConfig(segment_size=16 * 1024))
    fresh.create_table(schema)
    fresh.cluster.reset_clocks()
    assert _submit_phase(used) == _submit_phase(fresh)


def test_submit_write_visible_only_after_flush(gc_db):
    key = make_key(1)
    server = server_for(gc_db, key)
    future = server.submit_write("events", key, {"payload": b"hello"})
    assert not future.done
    # Not yet durable: the group has not flushed, so reads miss.
    assert server.read("events", key, "payload") is None
    server.commit.drain()
    assert future.acked
    timestamp, value = server.read("events", key, "payload")
    assert value == b"hello"
    assert timestamp == future.token


def test_client_submit_put_raw_round_trip(gc_db):
    key = make_key(2)
    client = gc_db.client(gc_db.cluster.machines[0])
    future, request_seconds, ack_seconds = client.submit_put_raw(
        "events", key, "payload", b"async"
    )
    assert request_seconds > 0 and ack_seconds > 0
    server_for(gc_db, key).commit.drain()
    assert future.acked
    assert client.get_raw("events", key, "payload") == b"async"


def test_crash_abandons_pending_futures(gc_db):
    key = make_key(3)
    server = server_for(gc_db, key)
    future = server.submit_write("events", key, {"payload": b"doomed"})
    server.crash()
    assert future.done and not future.acked
    assert isinstance(future.error, ServerDownError)


def test_restart_installs_fresh_coordinator(gc_db):
    key = make_key(4)
    server = server_for(gc_db, key)
    old = server.commit
    server.crash()
    server.restart()
    assert server.commit is not None and server.commit is not old
    future = server.submit_write("events", key, {"payload": b"recovered"})
    server.commit.drain()
    assert future.acked
    assert server.read("events", key, "payload")[1] == b"recovered"
