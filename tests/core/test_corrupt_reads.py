"""One integrity check per byte read.

A reader checks bytes with its own format's checksum and asks the DFS for
a verified read only when that check fails, or for a file that carries no
checksum.  Each read shape below meets one flipped byte on the replica it
reads first; the verified re-read must pass over that replica, prune it,
count it and queue its block for repair, and return the right bytes.
"""

import pytest

from repro import ColumnGroup, LogBase, LogBaseConfig, TableSchema
from repro.dfs.datanode import DataNode
from repro.errors import CorruptLogRecord
from repro.sim.metrics import (
    DFS_CORRUPT_REPLICAS,
    READ_MANY_SPANS,
    REPLICA_TAIL_ERRORS,
    SCAN_PREFETCH_WINDOWS,
)
from repro.wal.record import RecordType

TABLE, GROUP = "recov", "g"
SCHEMA = TableSchema(TABLE, "id", (ColumnGroup(GROUP, ("v",)),))
OWNER, FOLLOWER = "ts-node-0", "ts-node-1"
#: the read pipeline on: block cache, coalesced batch reads, and scans
#: streamed in windows much smaller than a segment.
PIPELINE = dict(
    segment_size=16 * 1024,
    block_cache_enabled=True,
    read_coalesce_gap=64 * 1024,
    scan_prefetch_bytes=512,
)
N = 40


def make_db(config: LogBaseConfig) -> LogBase:
    db = LogBase(n_nodes=3, config=config)
    db.create_table(
        SCHEMA, tablets_per_server=4, key_domain=1000, key_width=4,
        only_servers=[OWNER],
    )
    return db


def load(db: LogBase):
    client = db.client(db.cluster.machines[-1])
    keys = [str(i * 7 % 1000).zfill(4).encode() for i in range(N)]
    for i, key in enumerate(keys):
        client.put_raw(TABLE, key, GROUP, b"v%d" % i)
    return client, {key: b"v%d" % i for i, key in enumerate(keys)}


def corrupt_first_hit(db: LogBase, path: str, reader: str, at: int):
    """Flip the byte at file offset ``at`` on the replica a read of
    ``path`` by server ``reader`` tries first; returns (block, node)."""
    dfs = db.cluster.dfs
    block = dfs.namenode.get_file(path).blocks[0]
    machine = db.cluster.server_by_name(reader).machine
    node = dfs.open(path, machine)._replica_candidates(block)[0]
    node.corrupt_replica(block.block_id, at)
    return block, node


def assert_pruned(db: LogBase, block, node) -> None:
    assert node.name not in block.locations
    assert db.cluster.total_counters().get(DFS_CORRUPT_REPLICAS) == 1
    assert block.block_id in db.cluster.dfs.namenode.under_replicated


def pointer_of(db: LogBase, key: bytes):
    owner = db.cluster.server_by_name(OWNER)
    return owner.index_for(TABLE, key, GROUP).lookup_latest(key).pointer


def written(records) -> dict[bytes, bytes]:
    return {r.key: r.value for r in records if r.record_type is RecordType.WRITE}


def follower_entries(db: LogBase) -> dict[bytes, tuple]:
    host = db.cluster.server_by_name(FOLLOWER)
    return {
        entry.key: (entry.timestamp, entry.pointer)
        for follower in host.replicas.followers.values()
        for entry in follower.index(GROUP).entries()
    }


def owner_entries(db: LogBase, values) -> dict[bytes, tuple]:
    owner = db.cluster.server_by_name(OWNER)
    return {
        key: (entry.timestamp, entry.pointer)
        for key in values
        for entry in [owner.index_for(TABLE, key, GROUP).lookup_latest(key)]
    }


def follow(db: LogBase):
    owner = db.cluster.server_by_name(OWNER)
    host = db.cluster.server_by_name(FOLLOWER)
    for tablet in owner.tablets.values():
        host.replicas.follow(tablet, OWNER, 0)
    return owner, host


def shape_point_read(db, values):
    key = sorted(values)[N // 2]
    pointer = pointer_of(db, key)
    owner = db.cluster.server_by_name(OWNER)
    path = owner.log.segment_path(pointer.file_no)
    damage = corrupt_first_hit(db, path, OWNER, pointer.offset + pointer.size - 2)
    assert owner.log.read(pointer).value == values[key]
    return damage


def shape_coalesced_span(db, values):
    keys = sorted(values)
    pointers = [pointer_of(db, key) for key in keys]
    owner = db.cluster.server_by_name(OWNER)
    middle = pointers[N // 2]
    path = owner.log.segment_path(middle.file_no)
    damage = corrupt_first_hit(db, path, OWNER, middle.offset + middle.size - 2)
    records = owner.log.read_many(pointers)
    assert [r.value for r in records] == [values[key] for key in keys]
    assert owner.machine.counters.get(READ_MANY_SPANS) == 1
    return damage


def shape_prefetch_scan(db, values):
    owner = db.cluster.server_by_name(OWNER)
    [file_no] = owner.log.segments()
    path = owner.log.segment_path(file_no)
    damage = corrupt_first_hit(
        db, path, OWNER, db.cluster.dfs.file_length(path) // 2
    )
    assert written(r for _, r in owner.log.scan_segment(file_no)) == values
    assert owner.machine.counters.get(SCAN_PREFETCH_WINDOWS) > 1
    return damage


def shape_follower_tail(db, values):
    owner, host = follow(db)
    [file_no] = owner.log.segments()
    path = owner.log.segment_path(file_no)
    damage = corrupt_first_hit(
        db, path, FOLLOWER, db.cluster.dfs.file_length(path) // 2
    )
    host.tail_followed_logs()
    assert follower_entries(db) == owner_entries(db, values)
    assert host.machine.counters.get(REPLICA_TAIL_ERRORS) == 0
    return damage


def shape_run_index_rehome(db, values):
    owner, host = follow(db)
    host.tail_followed_logs()
    owner.compact()
    [run] = [n for n in owner.log.segments() if owner.log.is_sorted_segment(n)]
    path = owner.log.run_index_path(run)
    damage = corrupt_first_hit(db, path, FOLLOWER, db.cluster.dfs.file_length(path) // 2)
    host.tail_followed_logs()
    entries = follower_entries(db)
    assert entries == owner_entries(db, values)
    assert {pointer.file_no for _, pointer in entries.values()} == {run}
    assert host.machine.counters.get(REPLICA_TAIL_ERRORS) == 0
    return damage


def _checkpoint_load(db, values, pick):
    client = db.client(db.cluster.machines[-1])
    block = db.cluster.checkpoints[OWNER].write_checkpoint()
    path = pick(block)
    damage = corrupt_first_hit(db, path, OWNER, db.cluster.dfs.file_length(path) // 2)
    db.cluster.kill_server(OWNER)
    report = db.cluster.restart_server(OWNER)
    assert report.used_checkpoint
    assert {key: client.get_raw(TABLE, key, GROUP) for key in values} == values
    return damage


def shape_checkpoint_block(db, values):
    return _checkpoint_load(db, values, lambda _: f"/logbase/{OWNER}/ckpt/checkpoint.block")


def shape_checkpoint_index_file(db, values):
    return _checkpoint_load(db, values, lambda block: sorted(block.index_files.values())[0])


SHAPES = {
    "point-read": (shape_point_read, LogBaseConfig.with_fault_tolerance),
    "coalesced-span": (shape_coalesced_span, LogBaseConfig.with_fault_tolerance),
    "prefetch-scan": (shape_prefetch_scan, LogBaseConfig.with_fault_tolerance),
    "follower-tail": (shape_follower_tail, LogBaseConfig.with_read_replicas),
    "run-index-rehome": (shape_run_index_rehome, LogBaseConfig.with_read_replicas),
    "checkpoint-block": (shape_checkpoint_block, LogBaseConfig.with_fault_tolerance),
    "checkpoint-index-file": (
        shape_checkpoint_index_file, LogBaseConfig.with_fault_tolerance,
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_flipped_byte_is_read_around_and_its_replica_pruned(shape):
    run, preset = SHAPES[shape]
    db = make_db(preset(**PIPELINE))
    _, values = load(db)
    block, node = run(db, values)
    assert_pruned(db, block, node)


def test_fault_free_reads_verify_no_replica(monkeypatch):
    calls = []
    verify = DataNode.verify_replica

    def counting(self, *args, **kwargs):
        calls.append(args)
        return verify(self, *args, **kwargs)

    monkeypatch.setattr(DataNode, "verify_replica", counting)
    db = make_db(LogBaseConfig.with_fault_tolerance(**PIPELINE))
    _, values = load(db)
    owner = db.cluster.server_by_name(OWNER)
    key = sorted(values)[0]
    assert owner.log.read(pointer_of(db, key)).value == values[key]
    [file_no] = owner.log.segments()
    assert written(r for _, r in owner.log.scan_segment(file_no)) == values
    assert calls == []


# -- a damaged frame mid-log is damage, never a torn tail ---------------------


def restart_with_a_corrupt_segment(config: LogBaseConfig):
    db = make_db(config)
    client, values = load(db)
    owner = db.cluster.server_by_name(OWNER)
    [file_no] = owner.log.segments()
    path = owner.log.segment_path(file_no)
    dfs = db.cluster.dfs
    block = dfs.namenode.get_file(path).blocks[0]
    dfs.datanode("node-0").corrupt_replica(block.block_id, block.length // 2)
    db.cluster.kill_server(OWNER)
    db.cluster.restart_server(OWNER)
    return db, client, values, block


def test_restart_over_a_corrupt_frame_raises_instead_of_dropping_rows():
    # No replica checksums: nothing can find a good copy, and a scan that
    # stopped at the damage would silently lose every acked write after it.
    config = LogBaseConfig(segment_size=16 * 1024, client_retry_limit=3)
    with pytest.raises(CorruptLogRecord):
        restart_with_a_corrupt_segment(config)


def test_restart_over_a_corrupt_frame_recovers_every_row_from_a_good_replica():
    config = LogBaseConfig.with_fault_tolerance(segment_size=16 * 1024)
    db, client, values, block = restart_with_a_corrupt_segment(config)
    assert {key: client.get_raw(TABLE, key, GROUP) for key in values} == values
    assert db.cluster.total_counters().get(DFS_CORRUPT_REPLICAS) == 1
    assert "node-0" not in block.locations
