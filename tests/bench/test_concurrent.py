"""The client loop (``repro.bench.concurrent``) and the group-commit fan-in
sweep it measures.

The sweep runs ``OPS`` 1 KB puts as ``submit`` streams on a single-server
3-node LogBase (the §4.2 micro-benchmark deployment) at client fan-ins of
1, 8 and 64, each arm on a fresh cluster.  The commit coordinator
collapses DFS replication round trips from one per committed op toward
one per group as concurrent submissions pile into each group window:
fan-in 64 commits >= 5x the fan-in-1 throughput, at <= 0.1 round trips
per op (< 0.5 at fan-in 8), and no submission fails.
"""

import pytest

from repro import ColumnGroup, LogBase, LogBaseConfig, TableSchema
from repro.bench import concurrent as loop
from repro.bench.adapters import GROUP, TABLE, make_logbase
from repro.core.client import Client
from repro.errors import ServerDownError, ValidationConflict
from repro.sim.machine import Machine
from repro.sim.metrics import COMMIT_GROUP_FANIN, COMMIT_GROUPS, DFS_APPEND_ROUND_TRIPS
from repro.sim.scheduler import Advance

OPS, RECORD_SIZE = 256, 1000


def fanin_arm(fanin: int) -> dict:
    """One fresh-cluster arm: ``fanin`` submit streams splitting ``OPS``."""
    total = OPS * RECORD_SIZE
    config = LogBaseConfig(
        segment_size=max(total // 4, 64 * 1024), heap_bytes=8 * total
    )
    cluster = make_logbase(
        3,
        records_per_node=OPS,
        record_size=RECORD_SIZE,
        config=config,
        single_server=True,
    ).cluster
    network = cluster.config.network
    acked = []

    def stream(i: int):
        # Each logical client on its own machine: client-side time never
        # contends with server work.
        client = Client(cluster.master, Machine(f"cc-{i}", network=network))
        for j in range(OPS // fanin):
            key = b"c%03dk%08d" % (i, j)
            value = b"x" * RECORD_SIZE
            acked.append((yield from loop.submit(client, TABLE, key, GROUP, value)))

    before = cluster.total_counters()
    makespan = loop.run_clients(cluster, [stream(i) for i in range(fanin)])
    after = cluster.total_counters()
    round_trips = after[DFS_APPEND_ROUND_TRIPS] - before.get(DFS_APPEND_ROUND_TRIPS, 0)
    return {
        "acked": len(acked),
        "throughput": len(acked) / makespan,
        "round_trips_per_op": round_trips / len(acked),
        "mean_fanin": after[COMMIT_GROUP_FANIN] / after[COMMIT_GROUPS],
    }


@pytest.fixture(scope="module")
def sweep():
    return {fanin: fanin_arm(fanin) for fanin in (1, 8, 64)}


def test_every_submission_is_acked(sweep):
    assert [arm["acked"] for arm in sweep.values()] == [OPS, OPS, OPS]


def test_fanin_64_commits_five_times_the_fanin_1_throughput(sweep):
    assert sweep[64]["throughput"] >= 5.0 * sweep[1]["throughput"]


def test_round_trips_per_op_fall_with_fanin(sweep):
    assert sweep[1]["round_trips_per_op"] == 1.0
    assert sweep[8]["round_trips_per_op"] < 0.5
    assert sweep[64]["round_trips_per_op"] <= 0.1
    fanins = [arm["mean_fanin"] for arm in sweep.values()]
    assert fanins[0] == 1.0 < fanins[1] < fanins[2]


# -- the loop itself -----------------------------------------------------------------


SCHEMA = TableSchema("t", "id", (ColumnGroup("g", ("v",)),))


def _db() -> LogBase:
    db = LogBase(2, LogBaseConfig(segment_size=64 * 1024))
    db.create_table(SCHEMA)
    return db


def _key(i: int) -> bytes:
    return b"%012d" % (i * 999_999_937 % 2_000_000_000)


def test_one_stream_issues_exactly_its_calls_and_sets_no_clock():
    """The same calls made directly and as the loop's one client leave
    two identical clusters in identical states."""

    def calls(db, client):
        yield from loop.put(db, client, "t", _key(1), "g", b"a")
        writes = [("t", _key(2), "g", b"b"), ("t", _key(3), "g", b"c")]
        yield from loop.write_txn(db, client, writes)
        yield from loop.rmw_txn(db, client, "t", "g", [_key(1)], lambda _, value: value + b"!")
        assert (yield from loop.get(db, client, "t", _key(1), "g")) == b"a!"
        rows = yield from loop.scan(db, client, "t", "g", b"0" * 12, b"9" * 12)
        assert sorted(value for _, value in rows) == [b"a!", b"b", b"c"]

    direct, looped = _db(), _db()
    client = direct.client()
    client.put_raw("t", _key(1), "g", b"a")
    txn = direct.begin()
    txn.write_raw("t", _key(2), "g", b"b")
    txn.write_raw("t", _key(3), "g", b"c")
    txn.commit()
    txn = direct.begin()
    txn.write_raw("t", _key(1), "g", txn.read_raw("t", _key(1), "g") + b"!")
    txn.commit()
    assert client.get_raw("t", _key(1), "g") == b"a!"
    client.scan_raw("t", "g", b"0" * 12, b"9" * 12)

    loop.run_clients(looped.cluster, [calls(looped, looped.client())])
    for a, b in zip(direct.cluster.machines, looped.cluster.machines):
        assert a.clock.now == b.clock.now
        assert a.counters.snapshot() == b.counters.snapshot()


def test_transactions_of_two_clients_overlap():
    """Each phase is a step, so two read-modify-write transactions on one
    key interleave: both snapshot before either commits, and the second
    committer fails validation (first-committer-wins)."""
    db = _db()
    db.client().put_raw("t", _key(1), "g", b"0")
    outcomes = []

    def increment():
        try:
            txn = yield from loop.rmw_txn(
                db, db.client(), "t", "g", [_key(1)],
                lambda key, value: b"%d" % (int(value) + 1),
            )
        except ValidationConflict:
            outcomes.append("aborted")
            return
        outcomes.append(txn)

    loop.run_clients(db.cluster, [increment(), increment()])
    committed = [o for o in outcomes if o != "aborted"]
    assert len(committed) == 1 and outcomes.count("aborted") == 1
    assert db.client().get_raw("t", _key(1), "g") == b"1"


def test_a_failed_submission_raises_inside_the_stream():
    db = _db()
    server = db.cluster.servers[0]
    key = next(
        _key(i)
        for i in range(100)
        if db.cluster.master.locate("t", _key(i))[0] == server.name
    )
    errors = []

    def doomed():
        try:
            client = db.client(db.cluster.machines[1])
            yield from loop.submit(client, "t", key, "g", b"v")
        except ServerDownError as exc:
            errors.append(exc)

    def killer():
        yield Advance(0.0005)  # inside the doomed submission's group window
        server.crash()

    loop.run_clients(db.cluster, [doomed(), killer()])
    assert len(errors) == 1
