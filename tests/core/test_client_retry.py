"""Client retry behaviour around dead servers (config-gated; the seed
default of ``client_retry_limit=0`` raises immediately)."""

import pytest

from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.core.schema import ColumnGroup, TableSchema
from repro.errors import ServerDownError
from repro.sim.metrics import CLIENT_RETRIES

SCHEMA = TableSchema("t", "id", (ColumnGroup("g", ("v",)),))


def _db(config):
    db = LogBase(n_nodes=3, config=config)
    # Keep the whole table on ts-node-0 so killing it affects every key.
    db.create_table(SCHEMA, only_servers=["ts-node-0"])
    return db


def test_default_limit_raises_immediately():
    db = _db(LogBaseConfig())
    client = db.client(db.cluster.machines[2])
    client.put_raw("t", b"000000000001", "g", b"x")
    db.cluster.kill_node("ts-node-0")
    with pytest.raises(ServerDownError):
        client.put_raw("t", b"000000000002", "g", b"y")
    assert db.cluster.machines[2].counters.get(CLIENT_RETRIES) == 0


def test_retries_exhaust_with_backoff_charged_to_client():
    config = LogBaseConfig(client_retry_limit=2, client_retry_backoff=0.05)
    db = _db(config)
    client = db.client(db.cluster.machines[2])
    client.put_raw("t", b"000000000001", "g", b"x")
    db.cluster.kill_node("ts-node-0")
    clock = db.cluster.machines[2].clock
    before = clock.now
    with pytest.raises(ServerDownError):
        client.put_raw("t", b"000000000002", "g", b"y")
    assert db.cluster.machines[2].counters.get(CLIENT_RETRIES) == 2
    # Exponential backoff (0.05 + 0.10) is simulated time the client
    # spent waiting, charged to its own clock.
    assert clock.now - before >= 0.05 + 0.10


def test_retry_succeeds_once_failover_lands(monkeypatch):
    config = LogBaseConfig.with_fault_tolerance(segment_size=64 * 1024)
    db = _db(config)
    db.cluster.master.enable_auto_failover()
    client = db.client(db.cluster.machines[2])
    client.put_raw("t", b"000000000001", "g", b"x")
    db.cluster.kill_node("ts-node-0")

    # While the client sits out its retry backoff, the cluster's failure
    # detector notices the dead server and fails its tablets over — model
    # that concurrency by running a heartbeat during any backoff-sized
    # clock charge.
    clock = db.cluster.machines[2].clock
    original_advance = clock.advance
    failed_over = []

    def advance(seconds):
        original_advance(seconds)
        if seconds >= config.client_retry_backoff and not failed_over:
            db.cluster.heartbeat()
            failed_over.append(True)

    monkeypatch.setattr(clock, "advance", advance)
    assert client.put_raw("t", b"000000000002", "g", b"y") > 0
    assert failed_over  # the retry path was actually exercised
    assert db.cluster.machines[2].counters.get(CLIENT_RETRIES) >= 1
    # The write landed on the adopting server and is readable.
    assert client.get_raw("t", b"000000000002", "g") == b"y"
    # The pre-crash write survived failover too (log-based recovery).
    assert client.get_raw("t", b"000000000001", "g") == b"x"


def test_stale_cache_after_graceful_move_retries_transparently():
    db = _db(LogBaseConfig())
    client = db.client(db.cluster.machines[2])
    client.put_raw("t", b"000000000001", "g", b"x")  # cache now warm
    tablet = db.cluster.master.tablets("t")[0]
    db.cluster.migrate_tablet(str(tablet.tablet_id), "ts-node-1")
    # The cached location points at ts-node-0, which answers
    # TabletNotFound; the client must refresh and succeed silently.
    client.put_raw("t", b"000000000001", "g", b"y")
    assert client.get_raw("t", b"000000000001", "g") == b"y"
    assert db.cluster.machines[2].counters.get(CLIENT_RETRIES) == 0
