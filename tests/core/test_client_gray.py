"""Client-side gray resilience: capped backoff, scoped cache
invalidation, failure latency accounting, admission retry, and the
client's own circuit breakers."""

import pytest

from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.core.schema import ColumnGroup, TableSchema
from repro.errors import DeadlineExceededError, ServerDownError
from repro.sim.metrics import (
    ADMISSION_SHED,
    BREAKER_TRIPS,
    CLIENT_BREAKER_WAITS,
    CLIENT_RETRIES,
)

SCHEMA_T = TableSchema("t", "id", (ColumnGroup("g", ("v",)),))
SCHEMA_U = TableSchema("u", "id", (ColumnGroup("g", ("v",)),))

KEY = b"000000000001"


def _db(config, *, tables=("t",)):
    db = LogBase(n_nodes=3, config=config)
    if "t" in tables:
        db.create_table(SCHEMA_T, only_servers=["ts-node-0"])
    if "u" in tables:
        db.create_table(SCHEMA_U, only_servers=["ts-node-1"])
    return db


def test_retry_backoff_is_capped():
    config = LogBaseConfig(
        client_retry_limit=5,
        client_retry_backoff=0.05,
        client_retry_backoff_max=0.1,
    )
    db = _db(config)
    client = db.client(db.cluster.machines[2])
    client.put_raw("t", KEY, "g", b"x")
    db.cluster.kill_node("ts-node-0")
    clock = db.cluster.machines[2].clock
    before = clock.now
    with pytest.raises(ServerDownError):
        client.put_raw("t", b"000000000002", "g", b"y")
    waited = clock.now - before
    # 0.05 then 0.1 four times — not the uncapped 0.05+0.1+0.2+0.4+0.8.
    assert waited >= 0.05 + 4 * 0.1
    assert waited < 0.05 + 4 * 0.1 + 0.05
    assert db.cluster.machines[2].counters.get(CLIENT_RETRIES) == 5


def test_server_down_invalidates_only_the_affected_table():
    db = _db(LogBaseConfig(), tables=("t", "u"))
    client = db.client(db.cluster.machines[2])
    client.put_raw("t", KEY, "g", b"x")
    client.put_raw("u", KEY, "g", b"x")  # both caches warm
    db.cluster.kill_node("ts-node-0")
    with pytest.raises(ServerDownError):
        client.put_raw("t", b"000000000002", "g", b"y")
    # Only t's location entry was dropped; u still routes from cache
    # (no fresh master lookup) to its unaffected server.
    assert "t" not in client._locations
    assert "u" in client._locations
    assert client.put_raw("u", b"000000000002", "g", b"y") > 0


def test_last_op_seconds_recorded_on_failure():
    db = _db(LogBaseConfig())
    client = db.client(db.cluster.machines[2])
    client.put_raw("t", KEY, "g", b"x")
    db.cluster.kill_node("ts-node-0")
    client.last_op_seconds = -1.0
    with pytest.raises(ServerDownError):
        client.put_raw("t", b"000000000002", "g", b"y")
    # The failed attempt's latency (at least the RPC) was recorded, so
    # health tracking sees failures, not only successes.
    assert client.last_op_seconds > 0.0


def test_overloaded_server_shed_is_retried_after_hint():
    config = LogBaseConfig.with_gray_resilience(
        segment_size=64 * 1024,
        op_deadline=None,
        admission_queue_depth=8,
    )
    db = _db(config)
    client = db.client(db.cluster.machines[2])
    client.put_raw("t", KEY, "g", b"x")
    server = db.cluster.server_by_name("ts-node-0")
    # The server's clock races far ahead of the client's: a synchronous
    # caller would queue behind all that in-flight work.
    server.machine.clock.advance(1.0)
    clock = db.cluster.machines[2].clock
    before = clock.now
    assert client.put_raw("t", b"000000000002", "g", b"y") > 0
    assert server.machine.counters.get(ADMISSION_SHED) >= 1
    assert db.cluster.machines[2].counters.get(CLIENT_RETRIES) >= 1
    # The client honored the retry-after hint: it waited roughly the
    # excess backlog out on its own clock, then got admitted.
    assert clock.now - before >= 0.9
    assert client.get_raw("t", b"000000000002", "g") == b"y"


@pytest.mark.parametrize(
    "replica_gates",
    [{}, {"live_migration": True, "read_replicas": True, "replicas_per_tablet": 0}],
    ids=["owner-only", "replica-routing-owner-arm"],
)
def test_shed_scan_is_retried_after_hint(replica_gates):
    config = LogBaseConfig.with_gray_resilience(
        segment_size=64 * 1024,
        op_deadline=None,
        admission_queue_depth=8,
        **replica_gates,
    )
    db = _db(config)
    client = db.client(db.cluster.machines[2])
    client.put_raw("t", KEY, "g", b"x")
    server = db.cluster.server_by_name("ts-node-0")
    server.machine.clock.advance(1.0)  # same backlog as the put case above
    db.cluster.heartbeat()  # renews the ownership lease the jump outran
    clock = db.cluster.machines[2].clock
    before = clock.now
    rows = client.scan_raw("t", "g", b"0" * 12, b"9" * 12)
    assert rows == [(KEY, b"x")]
    assert server.machine.counters.get(ADMISSION_SHED) >= 1
    assert db.cluster.machines[2].counters.get(CLIENT_RETRIES) >= 1
    assert clock.now - before >= 0.9


def test_client_breaker_waits_out_cooldown_on_limping_server():
    config = LogBaseConfig.with_gray_resilience(
        segment_size=64 * 1024,
        read_cache_enabled=False,  # reads must reach the limping disk
        hedge_reads=False,  # isolate the client-side breaker
        breaker_min_samples=1,
        breaker_cooldown=0.5,
    )
    db = _db(config)
    client = db.client(db.cluster.machines[2])
    client.put_raw("t", KEY, "g", b"x")
    db.cluster.failures.degrade("ts-node-0", 40.0)
    counters = db.cluster.machines[2].counters
    assert client.get_raw("t", KEY, "g") == b"x"  # slow: trips the breaker
    assert counters.get(BREAKER_TRIPS) >= 1
    clock = db.cluster.machines[2].clock
    before = clock.now
    assert client.get_raw("t", KEY, "g") == b"x"
    # The client sat out the breaker's cooldown before its probe.
    assert counters.get(CLIENT_BREAKER_WAITS) == 1
    assert clock.now - before >= 0.5


def test_op_deadline_bounds_the_whole_operation():
    config = LogBaseConfig.with_gray_resilience(
        segment_size=64 * 1024,
        op_deadline=1e-4,  # smaller than even the request RPC
    )
    db = _db(config)
    client = db.client(db.cluster.machines[2])
    with pytest.raises(DeadlineExceededError):
        client.put_raw("t", KEY, "g", b"x")
