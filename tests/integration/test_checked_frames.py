"""The checked-frames memo is one per cluster: it lives on the cluster's
DFS, a fresh cluster starts with it empty, and two clusters in one process
never share it, so what one has checked never spares another a check.  On
an untailed log only a reader fills it; on a tailed one (read replicas on)
the writer records each frame it builds, so no first read runs a CRC."""

from dataclasses import replace

import pytest

import repro.wal.record
from repro import LogBase, LogBaseConfig
from repro.sim.metrics import DFS_CORRUPT_REPLICAS
from repro.wal.record import LogRecord, RecordType, _digest
from repro.wal.repository import LogRepository

KEYS = 30


def make_key(i: int) -> bytes:
    return b"%012d" % i


def loaded(schema, config) -> LogBase:
    """Every get of this cluster reads its frame from the log."""
    db = LogBase(n_nodes=3, config=replace(config, read_cache_enabled=False))
    db.create_table(schema)
    for i in range(KEYS):
        db.put("events", make_key(i), {"payload": {"body": b"body-%d" % i}})
    return db


def read_all(db: LogBase) -> None:
    for i in range(KEYS):
        assert db.get("events", make_key(i), "payload") == {"body": b"body-%d" % i}


def counting_crc(monkeypatch) -> list[int]:
    """Counts the frame checks ``repro.wal.record`` runs."""
    calls = [0]
    crc32c = repro.wal.record.crc32c

    def counted(data, crc=0):
        calls[0] += 1
        return crc32c(data, crc)

    monkeypatch.setattr(repro.wal.record, "crc32c", counted)
    return calls


def test_a_fresh_logbase_starts_with_an_empty_memo(schema, small_config):
    assert LogBase(n_nodes=3, config=small_config).cluster.dfs.checked_frames == {}
    read_all(loaded(schema, small_config))
    assert LogBase(n_nodes=3, config=small_config).cluster.dfs.checked_frames == {}


def test_two_clusters_never_share_a_memo(schema, small_config, monkeypatch):
    first, second = loaded(schema, small_config), loaded(schema, small_config)
    memo = first.cluster.dfs.checked_frames
    assert memo is not second.cluster.dfs.checked_frames
    calls = counting_crc(monkeypatch)
    read_all(first)
    first_checks, calls[0] = calls[0], 0
    assert first_checks > 0 and len(memo) > 0
    assert second.cluster.dfs.checked_frames == {}
    read_all(second)  # the same bytes, checked afresh
    assert calls[0] == first_checks
    assert second.cluster.dfs.checked_frames == memo
    calls[0] = 0
    read_all(first)  # now every frame is a memo hit
    assert calls[0] == 0


# -- a tailed log's writers vouch for their frames -------------------------------------

TXN_KEYS = range(KEYS, KEYS + 6)


def tailed(schema) -> LogBase:
    """A ``production()`` cluster (its logs are tailed) whose puts and one
    transaction's writes every get reads from the log."""
    db = loaded(schema, LogBaseConfig.production())
    txn = db.begin()
    for i in TXN_KEYS:
        txn.write("events", make_key(i), "payload", {"body": b"body-%d" % i})
    txn.commit()
    return db


def read_back(db: LogBase) -> None:
    read_all(db)
    for i in TXN_KEYS:
        assert db.get("events", make_key(i), "payload") == {"body": b"body-%d" % i}


def test_a_tailed_log_reads_back_what_its_writers_built_with_no_crc(schema, monkeypatch):
    db = tailed(schema)
    calls = counting_crc(monkeypatch)
    read_back(db)  # the first read of every put and transaction write
    assert calls[0] == 0
    db.compact_all()
    assert any(
        server.log.is_sorted_segment(file_no)
        for server in db.cluster.servers
        for file_no in server.log.segments()
    )
    calls[0] = 0
    read_back(db)  # the rows compaction wrote
    assert calls[0] == 0
    db.cluster.dfs.checked_frames.clear()
    read_back(db)  # the same reads check every frame once a memo is cold
    assert calls[0] == KEYS + len(TXN_KEYS)


def test_every_frame_a_writer_vouched_for_is_one_decode_accepts(schema):
    """Every live frame of a tailed log is in the memo, and each passes its
    CRC and parses, with its value where the entry says: every segment,
    decoded afresh, before compaction and after."""
    db = tailed(schema)
    for _ in range(2):
        memo, frames = db.cluster.dfs.checked_frames, 0
        for log in (server.log for server in db.cluster.servers):
            for file_no in log.segments():
                scope, buf, offset = log.segment_scope(file_no), log.read_segment_bytes(file_no), 0
                while offset < len(buf):
                    record, end = LogRecord.decode(buf, offset, scope)  # no memo: a CRC
                    crc_field = int.from_bytes(buf[offset + 4 : offset + 8], "little")
                    start = memo[_digest(buf, offset, end) << 32 | crc_field]
                    assert (buf[offset + 8 + start : end] if start else None) == record.value
                    frames, offset = frames + 1, end
        assert frames > KEYS
        db.compact_all()


@pytest.mark.parametrize("at", [4, 8, -1], ids=["crc", "body", "last"])
@pytest.mark.parametrize("vouch", [False, True], ids=["unvouched", "vouched"])
def test_a_flipped_replica_byte_under_a_vouched_frame_is_reread_verified(
    dfs, machines, vouch, at
):
    repo = LogRepository(dfs, machines[0], "/log", vouch=vouch)
    pointer, _ = repo.append(LogRecord(RecordType.WRITE, table="t", key=b"k", value=b"v" * 64))
    assert len(dfs.checked_frames) == vouch  # the writer's entry, before any read
    block = dfs.namenode.get_file(repo.segment_path(pointer.file_no)).blocks[0]
    local = dfs.datanode(machines[0].name)
    local.corrupt_replica(block.block_id, pointer.offset + at % pointer.size)
    assert repo.read(pointer) == b"v" * 64  # from a clean replica, verified
    assert machines[0].counters.get(DFS_CORRUPT_REPLICAS) == 1
    assert local.name not in block.locations
