"""The checked-frames memo is one per cluster: it lives on the cluster's
DFS, a fresh cluster starts with it empty, and two clusters in one process
never share it, so what one has checked never spares another a check."""

from dataclasses import replace

import repro.wal.record
from repro import LogBase

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
