"""A follower re-homes a sorted run through the loader every reader of a
persisted index uses (``LogTailer._rows`` -> ``redo_rows``), which
re-points its member indexes in one walk.  It must end where feeding the
run's index entry by entry through the commit gate ends — the path every
run took before — pass for pass: the same ``(applied, drained)``, member
indexes, watermarks and ``replica.lag_records``.
"""

import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ColumnGroup, LogBase, LogBaseConfig, TableSchema
from repro.sim.metrics import REPLICA_LAG_RECORDS, REPLICA_TAIL_BATCHES
from repro.wal.record import LogRecord, RecordType, abort_record

TABLE, GROUP = "t", "g"
SCHEMA = TableSchema(TABLE, "id", (ColumnGroup(GROUP, ("v",)),))
OWNER, IN_PLACE, ENTRY_BY_ENTRY = "ts-node-0", "ts-node-1", "ts-node-2"
KEYS = [f"{i * 250_000_000:012d}".encode() for i in range(8)]  # four per tablet


def rehome_entry_by_entry(self, scope, rows, marks):
    """Each run-index row through the gate as the record a scan of the run
    would have fed it: tombstones, then versions, all committed."""
    table, group = scope
    applied = 0
    for i, (key, timestamp, pointer) in enumerate(rows):
        kind = RecordType.INVALIDATE if i < marks else RecordType.WRITE
        record = LogRecord(
            kind, table=table, key=key, group=group, timestamp=timestamp
        )
        applied += self._cursor.gate.feed(pointer, record, True)
    return applied


def replica_state(server):
    return {
        tablet_id: (member.watermark, list(member.index(GROUP).entries()))
        for tablet_id, member in server.replicas.followers.items()
    }


def counters(server):
    names = (REPLICA_LAG_RECORDS, REPLICA_TAIL_BATCHES)
    return [server.machine.counters.get(name) for name in names]


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
        st.tuples(st.just("tail"), st.integers(min_value=1, max_value=8)),
    ),
    min_size=15,
    max_size=50,
)


@given(histories)
@settings(max_examples=60, deadline=None)
def test_in_place_rehome_equals_feeding_the_gate(history):
    config = LogBaseConfig(segment_size=1024, compaction_tier_fanout=2)
    db = LogBase(n_nodes=3, config=config)
    db.create_table(SCHEMA, tablets_per_server=2, only_servers=[OWNER])
    cluster = db.cluster
    owner = cluster.server_by_name(OWNER)
    hosts = [cluster.server_by_name(name) for name in (IN_PLACE, ENTRY_BY_ENTRY)]
    for host in hosts:
        for tablet in owner.tablets.values():
            host.replicas.follow(tablet, OWNER, 0)
    in_place, oracle = (host.replicas.tailers[OWNER] for host in hosts)
    oracle._rows = types.MethodType(rehome_entry_by_entry, oracle)

    def tail_both(batch):
        passes = in_place.tail(batch), oracle.tail(batch)
        assert passes[0] == passes[1]
        assert replica_state(hosts[0]) == replica_state(hosts[1])
        assert counters(hosts[0]) == counters(hosts[1])
        return passes[0][1]

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
        else:
            tail_both(op[1])
    while not tail_both(5):
        pass
