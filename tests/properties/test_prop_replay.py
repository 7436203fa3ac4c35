"""Cross-reader agreement on the redo rule (:mod:`repro.wal.replay`).

Every way of coming to hold a tablet is a scan of the same log through
the same rule, so all of them must see the same thing.  One generated
history — puts, deletes, multi-key commits, prepared-then-aborted and
never-resolved transactions, checkpoints, bounded follower passes and
compaction rounds (whose runs re-emit versions and tombstones out of file
order) — runs on one owner; the visible ``{key: (timestamp, value)}`` map
must then be equal from the owner's live index, the sequential restart
redo, the parallel restart redo, a drained follower, and the adopters
after a permanent failover.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ColumnGroup, LogBase, LogBaseConfig, TableSchema
from repro.core.recovery import recover_server
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


def drain(tailer) -> None:
    while not tailer.tail(5)[1]:
        pass


@given(histories)
@settings(max_examples=60, deadline=None)
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

    for step, op in enumerate(history):
        if op[0] == "put":
            db.put(TABLE, op[1], {GROUP: {"v": op[2]}})
        elif op[0] == "delete":
            db.delete(TABLE, op[1], GROUP)
        elif op[0] == "commit":
            txn = db.begin()
            for key, value in op[1].items():
                if value is None:
                    txn.delete(TABLE, key, GROUP)
                else:
                    txn.write_raw(TABLE, key, GROUP, value)
            txn.commit()
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
        elif op[0] == "checkpoint":
            cluster.checkpoints[OWNER].write_checkpoint()
        else:
            tailer.tail(op[1])

    readers = {"owner": visible(scan(owner))}

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

    cluster.kill_server(OWNER, permanent=True)
    readers["adopters"] = visible(
        row for server in cluster.servers if server is not owner for row in scan(server)
    )

    for name, seen in readers.items():
        assert seen == readers["owner"], name
