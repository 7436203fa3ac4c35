"""Cross-reader agreement on the redo rule (:mod:`repro.wal.replay`).

Every way of coming to hold a tablet is a scan of the same log through
the same rule, so all of them must see the same thing.  One generated
history — puts, deletes, multi-key commits, prepared-then-aborted and
never-resolved transactions, checkpoints, bounded follower passes,
compaction rounds (whose runs re-emit versions and tombstones out of file
order) and compaction rounds the owner's machine dies inside, at
``CP_COMPACTION_MID`` (a plan's run written, its inputs not yet retired)
or at ``CP_CHECKPOINT_MID`` (a plan installed, the checkpoint that follows
it half written — after a merge plan, its inputs are already out of the
segment map) and restarts from its checkpoint — runs on one owner; the
visible ``{key: (timestamp, value)}`` map must then be equal from the
owner's live index, the sequential restart redo, the parallel restart
redo, a drained follower, migration catch-up onto another server, and the
adopters after a permanent failover — and hold what a model of the
acknowledged writes holds.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ColumnGroup, LogBase, LogBaseConfig, TableSchema
from repro.core.recovery import recover_server
from repro.core.schema import encode_group_value
from repro.errors import ServerDownError
from repro.sim.failure import CP_CHECKPOINT_MID, CP_COMPACTION_MID, FaultPlan, fault_plan
from repro.wal.record import LogRecord, RecordType, abort_record

TABLE, GROUP = "t", "g"
SCHEMA = TableSchema(TABLE, "id", (ColumnGroup(GROUP, ("v",)),))
OWNER, REPLICA_HOST = "ts-node-0", "ts-node-1"
KEYS = [f"{i * 250_000_000:012d}".encode() for i in range(8)]  # four per tablet

keys = st.sampled_from(KEYS)
values = st.binary(min_size=1, max_size=48)
write_sets = st.dictionaries(keys, st.none() | values, min_size=2, max_size=4)

histories = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("commit"), write_sets),
        st.tuples(st.just("prepare"), write_sets, st.booleans()),  # abort marker?
        st.tuples(st.just("compact")),
        st.tuples(
            st.just("crash"),
            st.sampled_from([CP_COMPACTION_MID, CP_CHECKPOINT_MID]),
            st.integers(min_value=1, max_value=4),  # the point's n-th hit
        ),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("tail"), st.integers(min_value=1, max_value=6)),
    ),
    min_size=15,
    max_size=45,
)


def visible(rows) -> dict[bytes, tuple[int, bytes]]:
    return {key: (timestamp, value) for key, timestamp, value in rows}


def scan(server):
    return list(server.range_scan(TABLE, GROUP, b"", b"\xff"))


def compact_and_die(cluster, owner, point, hits) -> None:
    """A compaction round in which the owner's machine dies at the
    ``hits``-th ``point``, then its restart; a round that never reaches
    it just completes."""

    def kill(_ctx):
        cluster.kill_node(OWNER)
        raise ServerDownError(f"{OWNER} died mid-round")

    where = {"server": OWNER} if point == CP_CHECKPOINT_MID else {"machine": owner.machine.name}
    plan = FaultPlan()
    plan.add(point, kill, hits=hits, **where)
    with fault_plan(plan):
        try:
            owner.compact()
        except ServerDownError:
            pass
    if plan.fired:
        cluster.restart_server(OWNER)


def drain(tailer) -> None:
    while not tailer.tail(5)[1]:
        pass


@given(histories)
@settings(max_examples=60, deadline=None)
# A round that dies at its checkpoint retired segment 4 (the log's newest
# file); a restart that numbered files from the directory listing alone
# named its next segment 3 — behind the follower's cursor, which never
# read the delete in it — and later reused 4 for a run the follower's
# stale reader of the old segment 4 then failed to refresh.
@example([("put", KEYS[0], b"\x00")] * 6 + [
    ("compact",), ("prepare", {KEYS[0]: None, KEYS[1]: None}, False), ("compact",),
    ("prepare", {KEYS[0]: None, KEYS[1]: None}, False), ("tail", 1),
    ("crash", CP_CHECKPOINT_MID, 1), ("delete", KEYS[0]), ("delete", KEYS[0]), ("compact",),
])
# A checkpoint holds k's version in segment 1; filler puts roll the log
# to segment 2, where k is deleted.  The round's tail plan covers the
# scope, so it drops the delete instead of carrying it, and retires both
# segments; the owner dies before the round's checkpoint.  Had segment 2
# (newer than the block) been deleted at once, the restart would redo
# from the old block without the delete and k would come back.
@example([("put", KEYS[0], b"\x00"), ("checkpoint",)]
         + [("put", KEYS[1 + i % 7], bytes(40)) for i in range(24)]
         + [("delete", KEYS[0]), ("crash", CP_CHECKPOINT_MID, 1)])
# A round dies after its first plan installed a merged run that still
# holds a version whose delete only the checkpoint's files carry.  The
# restart reads that run, newer than the block, as rows without LSNs; the
# block's marks must reach the redo cursor or the version comes back.
@example([
    ("put", KEYS[1], b"\x00"), ("delete", KEYS[0]), ("compact",),
    *[("put", KEYS[0], b"\x00")] * 3, ("compact",), ("put", KEYS[0], b"\x00"),
    ("commit", {KEYS[0]: None, KEYS[1]: None}), ("put", KEYS[0], b"\x00"), ("compact",),
    ("put", KEYS[0], b"\x00"), ("compact",), ("put", KEYS[0], b"\x00"),
    ("crash", CP_COMPACTION_MID, 2),
])
def test_every_reader_of_the_log_sees_the_same_state(history):
    db = LogBase(
        n_nodes=3, config=LogBaseConfig(segment_size=1024, compaction_tier_fanout=2)
    )
    db.create_table(SCHEMA, tablets_per_server=2, only_servers=[OWNER])
    cluster = db.cluster
    owner = cluster.server_by_name(OWNER)
    replica_host = cluster.server_by_name(REPLICA_HOST)
    for tablet in owner.tablets.values():
        replica_host.replicas.follow(tablet, OWNER, 0)
    tailer = replica_host.replicas.tailers[OWNER]
    model: dict[bytes, bytes] = {}  # key -> the value an acknowledged write left

    for step, op in enumerate(history):
        if op[0] == "put":
            db.put(TABLE, op[1], {GROUP: {"v": op[2]}})
            model[op[1]] = encode_group_value({"v": op[2]})
        elif op[0] == "delete":
            db.delete(TABLE, op[1], GROUP)
            model.pop(op[1], None)
        elif op[0] == "commit":
            txn = db.begin()
            for key, value in op[1].items():
                if value is None:
                    txn.delete(TABLE, key, GROUP)
                else:
                    txn.write_raw(TABLE, key, GROUP, value)
            txn.commit()
            for key, value in op[1].items():
                if value is None:
                    model.pop(key, None)
                else:
                    model[key] = value
        elif op[0] == "prepare":
            # What a 2PC participant's log holds for a transaction that
            # never committed: its records, and maybe an ABORT marker.
            txn_id, timestamp = 1_000_000 + step, cluster.tso.next_timestamp()
            records = [
                LogRecord(
                    record_type=RecordType.INVALIDATE if value is None else RecordType.WRITE,
                    txn_id=txn_id, table=TABLE,
                    tablet=str(owner._route(TABLE, key).tablet_id),
                    key=key, group=GROUP, timestamp=timestamp, value=value,
                )
                for key, value in op[1].items()
            ]
            owner.append_transactional(records + [abort_record(txn_id)] * op[2])
        elif op[0] == "compact":
            owner.compact()
        elif op[0] == "crash":
            compact_and_die(cluster, owner, op[1], op[2])
        elif op[0] == "checkpoint":
            cluster.checkpoints[OWNER].write_checkpoint()
        else:
            tailer.tail(op[1])

    readers = {"owner": visible(scan(owner))}
    assert {key: value for key, (_, value) in readers["owner"].items()} == model

    drain(tailer)
    readers["follower"] = visible(
        replica_host.follower_scan(TABLE, GROUP, b"", b"\xff")
    )

    cluster.kill_server(OWNER)
    cluster.restart_server(OWNER, recover=False)
    recover_server(owner, cluster.checkpoints[OWNER])
    readers["sequential redo"] = visible(scan(owner))

    cluster.kill_server(OWNER)
    assert cluster.restart_server(OWNER).parallel
    readers["parallel redo"] = visible(scan(owner))

    # Migration catch-up reads the owner's log, runs as rows, from the
    # start and then from the persisted catch-up position.  The tablets
    # come home the same way, so the failover below still splits the
    # owner's log.
    tablet_ids = list(owner.tablets)
    for tablet_id in tablet_ids:
        cluster.migrator.migrate(tablet_id, REPLICA_HOST)
    readers["migration"] = visible(scan(replica_host))
    for tablet_id in tablet_ids:
        cluster.migrator.migrate(tablet_id, OWNER)

    cluster.kill_server(OWNER, permanent=True)
    readers["adopters"] = visible(
        row for server in cluster.servers if server is not owner for row in scan(server)
    )

    for name, seen in readers.items():
        assert seen == readers["owner"], name
