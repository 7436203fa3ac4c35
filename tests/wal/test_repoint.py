"""The owner re-points its B-link indexes in place after each compaction
plan (``MultiversionIndex.repoint``).  It must leave exactly what the
rebuild rule it replaced would have built: the old index's entries minus
those in the plan's retired segments, plus the plan's entries for the
versions the old index held — or, for a tablet with no index yet, every
plan entry it covers.  That rule lives here only, as the oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ColumnGroup, LogBase, LogBaseConfig, TableSchema
from repro.index.blink import BLinkTreeIndex
from repro.wal.planner import CompactionPlanner
from repro.wal.record import LogRecord, RecordType, abort_record

TABLE, GROUP = "t", "g"
SCHEMA = TableSchema(TABLE, "id", (ColumnGroup(GROUP, ("v",)),))
OWNER = "ts-node-0"
KEYS = [f"{i * 250_000_000:012d}".encode() for i in range(8)]  # four per tablet


def rebuilt(old, entries, retired, covers):
    """The rebuild rule: what a fresh index for one touched scope held."""
    fresh = BLinkTreeIndex()
    old_versions = set()
    if old is not None:
        for entry in old.entries():
            old_versions.add((entry.key, entry.timestamp))
            if entry.pointer.file_no not in retired:
                fresh.insert(entry.key, entry.timestamp, entry.pointer)
    for key, timestamp, pointer in entries:
        if covers(key) and (old is None or (key, timestamp) in old_versions):
            fresh.insert(key, timestamp, pointer)
    return list(fresh.entries())


def checked(server):
    """Wrap ``server._patch_indexes`` so every plan's patch is compared with
    the rebuild rule, index by index; returns the results it patched."""
    patch = server._patch_indexes
    results = []

    def patch_and_compare(result):
        retired = set(result.retired_segments)
        expected = {}
        for (table, group), entries in result.index_entries.items():
            for tablet in server.tablets.values():
                if tablet.table == table and group in tablet.schema.group_names:
                    slot = (str(tablet.tablet_id), group)
                    old = server._indexes.get(slot)
                    expected[slot] = rebuilt(old, entries, retired, tablet.covers)
        patch(result)
        for slot, rows in expected.items():
            index = server._indexes[slot]
            index.check_invariants()
            assert list(index.entries()) == rows, slot
            assert len(index) == len(rows), slot
        results.append(result)

    server._patch_indexes = patch_and_compare
    return results


keys = st.sampled_from(KEYS)
values = st.binary(min_size=1, max_size=48)
write_sets = st.dictionaries(keys, st.none() | values, min_size=2, max_size=4)
histories = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("commit"), write_sets),
        st.tuples(st.just("prepare"), write_sets, st.booleans()),  # abort marker?
        st.tuples(st.just("compact"), st.none() | st.integers(0, 6)),  # retain last n
    ),
    min_size=15,
    max_size=50,
)


@given(histories, st.sampled_from([None, 1, 2]))
@settings(max_examples=60, deadline=None)
def test_in_place_patch_equals_the_rebuild_rule(history, max_versions):
    config = LogBaseConfig(
        segment_size=1024, compaction_tier_fanout=2, max_versions=max_versions
    )
    db = LogBase(n_nodes=2, config=config)
    db.create_table(SCHEMA, tablets_per_server=2, only_servers=[OWNER])
    cluster = db.cluster
    owner = cluster.server_by_name(OWNER)
    checked(owner)
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
        else:
            retain_after = None
            if op[1] is not None:
                retain_after = cluster.tso.next_timestamp() - op[1]
            owner.compact(retain_after=retain_after)


def test_merge_plan_cannot_resurrect_a_key_deleted_in_the_tail(monkeypatch):
    """Two runs fill the tier; a key they hold is then deleted, and the
    marker sits in the unsorted tail.  The next round's merge plan re-reads
    both runs, still holding the key's versions, before the tail plan sees
    the marker: the in-place patch must not bring the version back."""
    config = LogBaseConfig(segment_size=4096, compaction_tier_fanout=2)
    db = LogBase(n_nodes=2, config=config)
    db.create_table(SCHEMA, tablets_per_server=1, only_servers=[OWNER])
    owner = db.cluster.server_by_name(OWNER)
    results = checked(owner)
    kinds = []
    plan = CompactionPlanner.plan

    def plan_and_record(self, *args, **kwargs):
        plans = plan(self, *args, **kwargs)
        kinds.extend(p.kind for p in plans)
        return plans

    monkeypatch.setattr(CompactionPlanner, "plan", plan_and_record)
    for round_no in range(2):
        for key in KEYS:
            db.put(TABLE, key, {GROUP: {"v": b"r%d" % round_no}})
        owner.compact()
    victim = KEYS[3]
    db.delete(TABLE, victim, GROUP)
    (index,) = owner.indexes().values()
    assert index.versions(victim) == []
    kinds.clear()
    results.clear()
    owner.compact()
    assert kinds == ["merge", "tail"]
    merged = results[0].index_entries[(TABLE, GROUP)]
    assert [ts for key, ts, _ in merged if key == victim]  # the runs still held it
    assert index.versions(victim) == []
    assert list(owner.indexes().values()) == [index]  # patched, not rebuilt
    assert owner.read(TABLE, victim, GROUP) is None
    assert [key for key, _, _ in owner.range_scan(TABLE, GROUP, b"", b"\xff")] == [
        key for key in KEYS if key != victim
    ]
