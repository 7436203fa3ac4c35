"""Work budgets: the exact work of LogBase's paths — the log-only write,
reads served from the log, compaction and restart recovery — held to one
checked-in table, ``work_budget.json``, keyed by profile, then by slice.

``production`` is a fixed, fault-free workload on a 4-node
``LogBaseConfig.production()`` cluster, one slice after another:

* ``put``: 200 puts, every node's client in turn;
* ``txn``: after every tenth put, a two-key transaction.  It snapshots, a
  client overwrites the key just put, the transaction reads that key's
  older version (a log read, so the owner keeps a reader on its active
  segment), then writes two other keys and commits;
* ``get``: 100 reads of the keys put (followers serve some of them);
* ``scan``: 10 range scans of 20 of those keys each;
* ``compaction``: six rounds of 40 more puts spread over every server,
  then ``compact()`` on every server, each server's round one op.  The
  sixth round's merge plans fire (asserted).  The checkpoint written
  after every plan is a row (``checkpoints``), and so are the bytes it
  writes (``checkpoint_bytes``);
* ``rehome``: the heartbeat after each compaction round, whose tail pass
  re-homes the new runs on the followers;
* ``restart``: ``kill_server`` then ``restart_server`` of one server (its
  recovery), then a put and a get of each of its keys, with no heartbeat
  after the restart.

Each op's client clock is first brought up to the cluster's latest, and
the heartbeat is ticked every few ops outside any charged op, so nothing
is shed, no lease lapses and no client retries; all three are asserted.

``production/concurrent`` runs on a fresh 4-node ``production()`` cluster
of its own, loaded with ``HOT`` keys and one heartbeat.  Its one op is a
run of the client loop (``repro.bench.concurrent``): ``CLIENTS`` logical
clients, client ``i`` on node ``i % 4``, each issuing ``CLIENT_OPS`` ops
that cycle through a read-modify-write transaction (it increments two hot
keys), ``submit``, ``get``, a write transaction (two fresh keys) and
``scan``.  The clients share their nodes' clocks, which the loop never
aligns.  The run reports its own ``acked`` and cleanly ``aborted`` ops,
the pairs of committed transactions that overlapped (neither saw the
other's commit), and the cluster's sheds, lease rejects and retries.

``paper`` is the end-to-end benchmark's paper profile (``LogBaseConfig()``
with 500 KB segments and a 2 MB heap, 4 nodes, 1 KB values):

* ``put``: 200 puts on a fresh cluster, from client ``i % 4`` of key
  ``i``.  Every put does the same work: the slice's ``every_op`` rows;
* ``scan``: one scan of the sorted keys 80..160 (it crosses from one
  server into the next) on a cluster bulk-loaded with 400 keys as
  ``ycsb_read_paper`` loads them: seed 42's keys, shuffled, through the
  client write buffers.

What a slice is charged, summed over its ops:

* calls, counted by wrapping: ``NameNode.get_file``, ``Tablet.covers``,
  ``DataNode.append_replica`` and ``verify_replica``, ``DFSReader.read``,
  ``LogRecord.decode``, ``decode_value`` and ``encode``,
  ``BLinkTreeIndex.insert``, ``crc32c`` (calls, and the bytes as
  ``crc32c_bytes``, in every module that imported it by name), the log
  codec's frame digests (``frame_digests``: a memo lookup, or a frame a
  tailed log's writer vouches for),
  compaction's tail and merge plans, and
  ``CheckpointManager.write_checkpoint``;
* ``obs_calls``: Python calls into ``repro.obs`` (a profile hook counts
  them), so telemetry that costs more per op fails here as well;
* the cluster counters in ``COUNTERS`` and the tracer's closed spans;
* ``sim_s``: simulated seconds, summed over every machine's clock;
* what an op reports of itself: a paper put's ``latency_s``, the
  client's ``last_op_seconds``, and a scan's ``rows``.

Heartbeats and loading are charged to no slice, save the ``rehome`` one.

The table is a ratchet: a change that does more work fails here, and one
that does less must lower the number in the same diff.  Simulated seconds
compare to a relative 1e-9.
"""

import json
import math
import pathlib
import random
import sys
import time
from collections import Counter

import pytest

import repro.dfs.datanode
import repro.index.persist
import repro.util
import repro.util.crc
import repro.wal.record
from repro import LogBase
from repro.bench import concurrent as loop
from repro.bench.adapters import GROUP as PAPER_GROUP
from repro.bench.adapters import TABLE as PAPER_TABLE
from repro.bench.adapters import LogBaseAdapter
from repro.bench.ycsb import YCSBWorkload
from repro.config import LogBaseConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.cluster import LogBaseCluster
from repro.core.schema import ColumnGroup, TableSchema
from repro.core.tablet import Tablet
from repro.dfs.datanode import DataNode
from repro.dfs.filesystem import DFSReader
from repro.dfs.namenode import NameNode
from repro.errors import TransactionAborted
from repro.index.blink import BLinkTreeIndex
from repro.wal.compaction import IncrementalCompactionJob
from repro.wal.record import LogRecord

CEILINGS = pathlib.Path(__file__).with_name("work_budget.json")
OBS = str(pathlib.Path(repro.dfs.datanode.__file__).parents[1] / "obs")
NODES, PUTS, TXN_EVERY, HEARTBEAT_EVERY = 4, 200, 10, 5
GETS, SCANS, SCAN_KEYS, ROUND_PUTS, ROUNDS = 100, 10, 20, 40, 6
TABLE, GROUP = "budget", "g"
SCHEMA = TableSchema(TABLE, "id", (ColumnGroup(GROUP, ("v",)),))
PAPER = {"segment_size": 500_000, "heap_bytes": 2_000_000}
PAPER_PUTS, PAPER_LOAD, PAPER_SCAN, PAPER_SEED = 200, 400, (80, 160), 42
CLIENTS, CLIENT_OPS, HOT = 8, 10, 8

# name -> (owner, attribute): each call counts one.
CALLS = {
    "get_file": (NameNode, "get_file"),
    "covers": (Tablet, "covers"),
    "append_replica": (DataNode, "append_replica"),
    "verify_replica": (DataNode, "verify_replica"),
    "DFSReader.read": (DFSReader, "read"),
    "LogRecord.decode": (LogRecord, "decode"),
    "LogRecord.decode_value": (LogRecord, "decode_value"),
    "LogRecord.encode": (LogRecord, "encode"),
    "BLinkTreeIndex.insert": (BLinkTreeIndex, "insert"),
    "tail_plans": (IncrementalCompactionJob, "_run_tail"),
    "merge_plans": (IncrementalCompactionJob, "_run_merge"),
}
COUNTERS = (
    "commit.groups", "commit.group_fanin", "dfs.append_round_trips",
    "disk.reads", "disk.seeks", "disk.writes", "disk.bytes_read",
    "disk.bytes_written", "net.bytes_sent",
)
SECONDS = ("sim_s", "latency_s")  # float rows, compared to a relative 1e-9
CRC_MODULES = (
    repro.util.crc, repro.util, repro.wal.record, repro.index.persist,
    repro.dfs.datanode,
)


def _key(i: int) -> bytes:
    return b"%012d" % (i * 9_999_991 % 2_000_000_000)


def _value(i: int, size: int = 100) -> bytes:
    return bytes((i + j) % 251 for j in range(size))


def _paper_key(i: int) -> bytes:
    return b"user%08d" % (i * 7919 % 100_000_000)


def _spans_closed(cluster) -> int:
    return cluster.tracer.spans_closed if cluster.tracer is not None else 0


class Meter:
    """Counts the named work while installed, and charges it to slices:
    ``charged`` is the one path every op of every slice goes through."""

    def __init__(self, monkeypatch) -> None:
        self.calls = Counter(dict.fromkeys(
            [*CALLS, "crc32c", "crc32c_bytes", "frame_digests", "checkpoints",
             "checkpoint_bytes", "obs_calls"], 0
        ))
        self.cluster = None  # the cluster whose counters are being read
        self.ops: dict[tuple[str, str], list[dict]] = {}
        for name, (owner, attr) in CALLS.items():
            monkeypatch.setattr(owner, attr, self._counted(name, vars(owner)[attr]))
        crc = repro.util.crc.crc32c
        calls = self.calls

        def crc32c(data, crc_in=0):
            calls["crc32c"] += 1
            calls["crc32c_bytes"] += len(data)
            return crc(data, crc_in)

        for module in CRC_MODULES:
            monkeypatch.setattr(module, "crc32c", crc32c)
        digest = repro.wal.record._digest

        def frame_digest(buf, offset, end):
            calls["frame_digests"] += 1
            return digest(buf, offset, end)

        monkeypatch.setattr(repro.wal.record, "_digest", frame_digest)
        checkpoint = CheckpointManager.write_checkpoint
        meter = self

        def write_checkpoint(manager):
            calls["checkpoints"] += 1
            before = meter.cluster.total_counters().get("disk.bytes_written", 0)
            block = checkpoint(manager)
            after = meter.cluster.total_counters().get("disk.bytes_written", 0)
            calls["checkpoint_bytes"] += after - before
            return block

        monkeypatch.setattr(CheckpointManager, "write_checkpoint", write_checkpoint)

    def _counted(self, name, original):
        calls = self.calls
        fn = original.__func__ if isinstance(original, classmethod) else original

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return classmethod(wrapper) if isinstance(original, classmethod) else wrapper

    def charged(self, profile: str, kind: str, op):
        """Run ``op()`` and charge everything it did to ``profile/kind``.
        ``op`` may return a dict of facts it measured itself (a put's
        latency, a scan's rows), charged beside the counts."""
        cluster = self.cluster
        calls = Counter(self.calls)
        before = cluster.total_counters()
        clocks = sum(machine.clock.now for machine in cluster.machines)
        spans = _spans_closed(cluster)
        sys.setprofile(self._count_obs_call)
        try:
            facts = op() or {}
        finally:
            sys.setprofile(None)
        after = cluster.total_counters()
        work = {name: self.calls[name] - calls[name] for name in self.calls}
        work.update((name, after.get(name, 0) - before.get(name, 0)) for name in COUNTERS)
        work["spans_closed"] = _spans_closed(cluster) - spans
        work["sim_s"] = sum(machine.clock.now for machine in cluster.machines) - clocks
        work.update(facts)
        self.ops.setdefault((profile, kind), []).append(work)

    def _count_obs_call(self, frame, event, _arg) -> None:
        if event == "call" and frame.f_code.co_filename.startswith(OBS):
            self.calls["obs_calls"] += 1

    def table(self) -> dict:
        """``{profile: {slice: {"ops": n, row: total, ...}}}``."""
        out: dict = {}
        for (profile, kind), ops in self.ops.items():
            row = {"ops": len(ops)}
            for name in sorted({name for work in ops for name in work}):
                total = sum(work.get(name, 0) for work in ops)
                row[name] = total if name in SECONDS else int(total)
            out.setdefault(profile, {})[kind] = row
        return out

    def alike(self, profile: str, kind: str) -> dict:
        """The rows every op of the slice did alike, with their value."""
        ops = self.ops[(profile, kind)]
        return {
            name: int(ops[0][name])
            for name in ops[0]
            if name not in SECONDS and len({work.get(name) for work in ops}) == 1
        }


def production(meter: Meter) -> dict:
    """The production slices; returns the run's shed, lapse and retry
    counts."""
    db = LogBase(NODES, LogBaseConfig.production())
    db.create_table(SCHEMA)
    cluster = meter.cluster = db.cluster
    clients = [db.client(machine) for machine in cluster.machines]

    def align(client):
        client._machine.clock.advance_to(max(m.clock.now for m in cluster.machines))

    def charged(n, kind, client, op):
        """Op ``n`` of a slice: a heartbeat every few ops, then the op."""
        if n % HEARTBEAT_EVERY == 0:
            cluster.heartbeat()
        align(client)
        meter.charged("production", kind, op)

    def put(i, value):
        clients[i % NODES].put_raw(TABLE, _key(i), GROUP, value)

    def txn(i):
        txn = db.begin()
        align(clients[i % NODES])
        put(i, _value(i + 1))  # a newer version lands after the snapshot
        assert txn.read_raw(TABLE, _key(i), GROUP) == _value(i)
        txn.write_raw(TABLE, _key(i + 1000), GROUP, _value(i))
        txn.write_raw(TABLE, _key(i + 2000), GROUP, _value(i))
        txn.commit()

    def get(i):
        assert clients[i % NODES].get_raw(TABLE, _key(i), GROUP) is not None

    for i in range(PUTS):
        charged(i, "put", clients[i % NODES], lambda: put(i, _value(i)))
        if i % TXN_EVERY == TXN_EVERY - 1:
            meter.charged("production", "txn", lambda: txn(i))

    for n in range(GETS):
        charged(n, "get", clients[2 * n % NODES], lambda: get(2 * n))

    keys = sorted(_key(i) for i in range(PUTS))

    def scan(n):
        rows = clients[n % NODES].scan_raw(
            TABLE, GROUP, keys[n * SCAN_KEYS], keys[n * SCAN_KEYS + SCAN_KEYS - 1]
        )
        return {"rows": len(rows)}

    for n in range(SCANS):
        charged(n, "scan", clients[n % NODES], lambda: scan(n))

    for round_no in range(ROUNDS):
        for n in range(ROUND_PUTS):
            if n % HEARTBEAT_EVERY == 0:
                cluster.heartbeat()
            i = PUTS + n * ROUNDS + round_no  # spread over every server
            align(clients[i % NODES])
            put(i, _value(i))
        for server in cluster.servers:
            meter.charged("production", "compaction", lambda: void(server.compact()))
        meter.charged("production", "rehome", lambda: void(cluster.heartbeat()))

    victim = cluster.servers[1].name
    owned = [i for i in range(PUTS) if cluster.master.locate(TABLE, _key(i))[0] == victim]
    cluster.heartbeat()

    def restart():
        cluster.kill_server(victim)
        cluster.restart_server(victim)

    meter.charged("production", "restart", restart)
    for i in owned:
        client = clients[i % NODES]
        align(client)
        meter.charged("production", "restart", lambda: put(i, _value(i + 3)))
        align(client)
        meter.charged("production", "restart", lambda: get(i))

    totals = cluster.total_counters()
    return {
        "admission.shed": totals.get("admission.shed", 0),
        "migration.lease_rejects": totals.get("migration.lease_rejects", 0),
        "client.retries": totals.get("client.retries", 0),
    }


def concurrent(meter: Meter) -> None:
    """The ``production/concurrent`` slice."""
    db = LogBase(NODES, LogBaseConfig.production())
    db.create_table(SCHEMA)
    cluster = meter.cluster = db.cluster
    hot = [_key(10_000 + h) for h in range(HOT)]
    ordered = sorted(hot)
    for h, key in enumerate(hot):
        db.client(cluster.machines[h % NODES]).put_raw(TABLE, key, GROUP, b"0")
    cluster.heartbeat()
    done = {"acked": 0, "aborted": 0}
    committed = []

    def increment(_, value):
        return b"%d" % (int(value) + 1)

    def stream(i):
        client = db.client(cluster.machines[i % NODES])
        for n in range(CLIENT_OPS):
            fresh = [_key(20_000 + 100 * i + 3 * n + k) for k in range(3)]
            kind = n % 5
            try:
                if kind == 0:
                    keys = [hot[(i + n) % HOT], hot[(i + n + 5) % HOT]]
                    txn = yield from loop.rmw_txn(db, client, TABLE, GROUP, keys, increment)
                    committed.append(txn)
                elif kind == 1:
                    yield from loop.submit(client, TABLE, fresh[0], GROUP, _value(n))
                elif kind == 2:
                    yield from loop.get(db, client, TABLE, hot[(i + n) % HOT], GROUP)
                elif kind == 3:
                    writes = [(TABLE, key, GROUP, _value(n)) for key in fresh[1:]]
                    committed.append((yield from loop.write_txn(db, client, writes)))
                else:
                    low = (i + n) % (HOT - 4)
                    bounds = ordered[low], ordered[low + 4]
                    yield from loop.scan(db, client, TABLE, GROUP, *bounds)
            except TransactionAborted as exc:
                assert exc.__cause__ is None, exc  # a clean abort only
                done["aborted"] += 1
                continue
            done["acked"] += 1

    def run():
        loop.run_clients(cluster, [stream(i) for i in range(CLIENTS)])
        assert not db.txn_manager._sessions  # the aborted ones closed theirs too
        totals = cluster.total_counters()
        overlapping = sum(
            a.commit_ts >= b.read_ts and b.commit_ts >= a.read_ts
            for n, a in enumerate(committed)
            for b in committed[n + 1 :]
        )
        return {
            **done,
            "overlapping_txn_pairs": overlapping,
            "admission.shed": totals.get("admission.shed", 0),
            "migration.lease_rejects": totals.get("migration.lease_rejects", 0),
            "client.retries": totals.get("client.retries", 0),
        }

    meter.charged("production", "concurrent", run)


def paper(meter: Meter) -> None:
    """The paper-profile slices, each on a fresh cluster."""
    adapter = LogBaseAdapter(LogBaseCluster(NODES, LogBaseConfig(**PAPER)))
    meter.cluster = adapter.cluster
    for i in range(PAPER_PUTS):
        meter.charged("paper", "put", lambda: {
            "latency_s": adapter.put(i % NODES, _paper_key(i), _value(i, 1000))
        })

    keys = YCSBWorkload(
        records_per_node=PAPER_LOAD // NODES, seed=PAPER_SEED
    ).load_keys(NODES)
    order = list(keys)
    random.Random(PAPER_SEED).shuffle(order)
    adapter = LogBaseAdapter(LogBaseCluster(NODES, LogBaseConfig(**PAPER)))
    meter.cluster = adapter.cluster
    for i, key in enumerate(order):
        adapter.put_buffered(i % NODES, key, _value(i, 1000))
    for node in range(NODES):
        adapter.flush_buffers(node)
    lo, hi = PAPER_SCAN
    client = adapter._clients[0]
    meter.charged("paper", "scan", lambda: {
        "rows": len(client.scan_raw(PAPER_TABLE, PAPER_GROUP, keys[lo], keys[hi]))
    })


def void(_result) -> None:
    """An op that reports nothing of itself."""


def measure(monkeypatch) -> tuple[Meter, dict]:
    """The charged meter, and the production run's shed, lapse and retry
    counts."""
    meter = Meter(monkeypatch)
    run = production(meter)
    concurrent(meter)
    paper(meter)
    return meter, run


def _compare(measured, ceiling) -> int:
    """-1, 0 or 1: ``measured`` below, at or over ``ceiling``."""
    if isinstance(ceiling, float) and math.isclose(measured, ceiling, rel_tol=1e-9):
        return 0
    return (measured > ceiling) - (measured < ceiling)


def test_every_slice_stays_within_its_work_budget(monkeypatch):
    began = time.perf_counter()
    meter, run = measure(monkeypatch)
    elapsed = time.perf_counter() - began
    measured = meter.table()
    ceilings = json.loads(CEILINGS.read_text())
    assert run == {"admission.shed": 0, "migration.lease_rejects": 0, "client.retries": 0}
    assert measured["production"]["compaction"]["merge_plans"] >= 1
    mixed = measured["production"]["concurrent"]
    assert mixed["acked"] + mixed["aborted"] == CLIENTS * CLIENT_OPS
    assert mixed["commit.group_fanin"] > mixed["commit.groups"]
    assert mixed["overlapping_txn_pairs"] >= 1
    assert {p: set(s) for p, s in ceilings.items()} == {p: set(s) for p, s in measured.items()}
    over, under = [], []
    for profile, slices in ceilings.items():
        for kind, rows in slices.items():
            got = measured[profile][kind]
            tag = f"{profile}/{kind}"
            assert got["ops"] == rows["ops"], f"{tag}: {got['ops']} ops, not {rows['ops']}"
            alike = meter.alike(profile, kind)
            for name, value in rows.pop("every_op", {}).items():
                assert alike.get(name) == value, f"{tag}: {name} is not {value} on every op"
            unlisted = set(got) - set(rows)
            assert not unlisted, f"{tag}: work with no ceiling: {sorted(unlisted)}"
            for name, ceiling in rows.items():
                moved = _compare(got.get(name, 0), ceiling)
                line = f"{tag} {name}: {got.get(name, 0)!r} vs {ceiling!r} ({rows['ops']} ops)"
                if moved > 0:
                    over.append(line)
                elif moved < 0:
                    under.append(line)
    assert not over, "more work than the budget allows: " + "; ".join(over)
    assert not under, (
        f"less work than the budget: lower the ceilings in {CEILINGS.name} "
        "in this change: " + "; ".join(under)
    )
    assert elapsed < 3.0, f"the budget run took {elapsed:.2f} s"


def test_a_budget_does_not_depend_on_what_ran_before_it():
    """Frame checks a cluster's memo spares are that cluster's own: the
    paper slices measure the same ``crc32c`` work run twice in one
    process, so an exact budget holds in any test order."""
    runs = []
    for _ in range(2):
        with pytest.MonkeyPatch.context() as patch:
            meter = Meter(patch)
            paper(meter)
        runs.append({
            kind: (rows["crc32c"], rows["crc32c_bytes"])
            for kind, rows in meter.table()["paper"].items()
        })
    assert runs[0] == runs[1]
    assert runs[0]["scan"][0] > 0


if __name__ == "__main__":
    # Prints the measured table (e.g. to lower the ceilings after a change
    # that does less work): python tests/integration/test_work_budget.py
    # The ``every_op`` rows the checked-in table names are carried over.
    with pytest.MonkeyPatch.context() as patch:
        meter, run = measure(patch)
    table = meter.table()
    for profile, slices in json.loads(CEILINGS.read_text()).items():
        for kind, rows in slices.items():
            if "every_op" in rows and kind in table.get(profile, {}):
                alike = meter.alike(profile, kind)
                table[profile][kind]["every_op"] = {n: alike.get(n) for n in rows["every_op"]}
    print(json.dumps(table, indent=1))
    print(json.dumps(run))
