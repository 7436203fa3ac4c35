"""The put path's work budget: exact per-op work on a fixed, fault-free
``LogBaseConfig.production()`` workload, held to the ceilings checked in
beside this test (``work_budget.json``).

Four nodes; every node's client writes in turn, 200 puts in all, and
every tenth put is followed by a two-key transaction, 20 in all: it
snapshots, a client overwrites the key just put, the transaction reads
that key's older version (a log read, so the owner keeps a reader on its
active segment), then writes two other keys and commits.  The ops run one
after another in simulated time (a client's clock is brought up to the
cluster's latest before it issues one), and the heartbeat is ticked every
few ops, so nothing is shed and no lease lapses; both are asserted.

Work is counted two ways.  Calls to ``NameNode.get_file``,
``Tablet.covers``, ``crc32c`` (calls and bytes) and
``DataNode.append_replica`` are counted by wrapping them, as the
end-to-end benchmark's layer tracer does; ``dfs.append_round_trips``,
``disk.writes``, ``commit.groups`` and the tracer's closed spans are read
from counters.  Each op's work is what happened inside it; heartbeats are
not charged to any op.

The table is a ratchet: a change that does more work per op fails here,
and one that does less must lower the number in the same diff.
"""

import json
import pathlib
import time
from collections import Counter

import pytest

import repro.dfs.datanode
import repro.index.persist
import repro.util
import repro.util.crc
import repro.wal.record
from repro import LogBase
from repro.config import LogBaseConfig
from repro.core.schema import ColumnGroup, TableSchema
from repro.core.tablet import Tablet
from repro.dfs.datanode import DataNode
from repro.dfs.namenode import NameNode

CEILINGS = pathlib.Path(__file__).with_name("work_budget.json")
NODES, PUTS, TXN_EVERY, HEARTBEAT_EVERY = 4, 200, 10, 5
TABLE, GROUP = "budget", "g"
SCHEMA = TableSchema(TABLE, "id", (ColumnGroup(GROUP, ("v",)),))
COUNTERS = ("dfs.append_round_trips", "disk.writes", "commit.groups")


def _key(i: int) -> bytes:
    return b"%012d" % (i * 9_999_991 % 2_000_000_000)


def _value(i: int) -> bytes:
    return bytes((i + j) % 251 for j in range(100))


def _wrap(monkeypatch, calls: Counter) -> None:
    """Count calls to the work the budget names, in every module that
    imported ``crc32c`` by name."""

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr in (
        (NameNode, "get_file"),
        (Tablet, "covers"),
        (DataNode, "append_replica"),
    ):
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
    crc = repro.util.crc.crc32c

    def crc32c(data, crc_in=0):
        calls["crc32c"] += 1
        calls["crc32c_bytes"] += len(data)
        return crc(data, crc_in)

    for module in (
        repro.util.crc, repro.util, repro.wal.record, repro.index.persist,
        repro.dfs.datanode,
    ):
        monkeypatch.setattr(module, "crc32c", crc32c)


def measure(monkeypatch) -> dict[str, dict[str, float]]:
    """Per-op work of each op kind, and the run's shed and lapse counts."""
    db = LogBase(NODES, LogBaseConfig.production())
    db.create_table(SCHEMA)
    cluster = db.cluster
    clients = [db.client(machine) for machine in cluster.machines]
    calls: Counter = Counter()
    _wrap(monkeypatch, calls)
    work = {"put": Counter(), "txn": Counter()}
    ops = Counter()

    def charged(kind, op):
        before_calls = Counter(calls)
        before = cluster.total_counters()
        spans = cluster.tracer.spans_closed
        op()
        after = cluster.total_counters()
        work[kind].update(calls - before_calls)
        for name in COUNTERS:
            work[kind][name] += after.get(name, 0) - before.get(name, 0)
        work[kind]["spans_closed"] += cluster.tracer.spans_closed - spans
        ops[kind] += 1

    def put(i, value):
        client = clients[i % NODES]
        client._machine.clock.advance_to(max(m.clock.now for m in cluster.machines))
        client.put_raw(TABLE, _key(i), GROUP, value)

    def txn(i):
        txn = db.begin()
        put(i, _value(i + 1))  # a newer version lands after the snapshot
        assert txn.read_raw(TABLE, _key(i), GROUP) == _value(i)
        txn.write_raw(TABLE, _key(i + 1000), GROUP, _value(i))
        txn.write_raw(TABLE, _key(i + 2000), GROUP, _value(i))
        txn.commit()

    for i in range(PUTS):
        if i % HEARTBEAT_EVERY == 0:
            cluster.heartbeat()
        charged("put", lambda: put(i, _value(i)))
        if i % TXN_EVERY == TXN_EVERY - 1:
            charged("txn", lambda: txn(i))
    totals = cluster.total_counters()
    per_op = {
        kind: {name: round(count / ops[kind], 3) for name, count in sorted(work[kind].items())}
        for kind in work
    }
    per_op["run"] = {
        "ops": ops["put"] + ops["txn"],
        "admission.shed": totals.get("admission.shed", 0),
        "migration.lease_rejects": totals.get("migration.lease_rejects", 0),
        "client.retries": totals.get("client.retries", 0),
    }
    return per_op


def test_the_put_path_stays_within_its_work_budget(monkeypatch):
    began = time.perf_counter()
    measured = measure(monkeypatch)
    elapsed = time.perf_counter() - began
    ceilings = json.loads(CEILINGS.read_text())
    run = measured["run"]
    assert run["admission.shed"] == 0 and run["client.retries"] == 0, run
    assert run["migration.lease_rejects"] == 0, run
    assert run["ops"] == PUTS + PUTS // TXN_EVERY
    over, under = [], []
    for kind in ("put", "txn"):
        for name, ceiling in ceilings[kind].items():
            value = measured[kind].get(name, 0.0)
            if value > ceiling:
                over.append(f"{kind} {name}: {value} > {ceiling}")
            elif value < ceiling:
                under.append(f"{kind} {name}: {value} < {ceiling}")
        unlisted = set(measured[kind]) - set(ceilings[kind])
        assert not unlisted, f"{kind}: work with no ceiling: {sorted(unlisted)}"
    assert not over, "more work per op than the budget allows: " + "; ".join(over)
    assert not under, (
        "less work per op than the budget: lower the ceilings in "
        f"{CEILINGS.name} in this change: " + "; ".join(under)
    )
    assert elapsed < 3.0, f"the budget run took {elapsed:.2f} s"


if __name__ == "__main__":
    # Prints the measured table (e.g. to lower the ceilings after a change
    # that does less work): python tests/integration/test_work_budget.py
    with pytest.MonkeyPatch.context() as patch:
        print(json.dumps(measure(patch), indent=1))
