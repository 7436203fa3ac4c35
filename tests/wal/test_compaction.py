"""Unit tests for log compaction (§3.6.5)."""

import pytest

from repro.wal.record import LogRecord, RecordType, commit_record
from repro.wal.repository import LogRepository
from tests.wal.helpers import compact_whole_log, indexed, read_record


def write(key: bytes, ts: int, value: bytes, *, table="t", group="g", txn=0) -> LogRecord:
    return LogRecord(
        record_type=RecordType.WRITE,
        txn_id=txn,
        table=table,
        tablet=f"{table}#0",
        key=key,
        group=group,
        timestamp=ts,
        value=value,
    )


def delete(key: bytes, ts: int, *, table="t", group="g") -> LogRecord:
    return LogRecord(
        record_type=RecordType.INVALIDATE,
        table=table,
        tablet=f"{table}#0",
        key=key,
        group=group,
        timestamp=ts,
        value=None,
    )


@pytest.fixture
def repo(dfs, machines):
    return LogRepository(dfs, machines[0], "/logbase/ts-0/log", segment_size=1 << 20)


def test_output_sorted_by_key_then_timestamp(repo):
    for key, ts in ((b"b", 2), (b"a", 3), (b"b", 1), (b"a", 1)):
        repo.append(write(key, ts, b"v"))
    result = compact_whole_log(repo)
    order = [(key, ts) for _, _, key, ts, _ in indexed(result)]
    assert order == [(b"a", 1), (b"a", 3), (b"b", 1), (b"b", 2)]


def test_all_versions_kept_by_default(repo):
    for ts in range(1, 6):
        repo.append(write(b"k", ts, b"v%d" % ts))
    result = compact_whole_log(repo)
    assert result.stats.kept_versions == 5


def test_max_versions_drops_oldest(repo):
    for ts in range(1, 6):
        repo.append(write(b"k", ts, b"v%d" % ts))
    result = compact_whole_log(repo, max_versions=2)
    kept_ts = [ts for _, _, _, ts, _ in indexed(result)]
    assert kept_ts == [4, 5]
    assert result.stats.dropped_obsolete == 3


def test_deleted_records_removed(repo):
    repo.append(write(b"k", 1, b"old"))
    repo.append(write(b"k", 2, b"newer"))
    repo.append(delete(b"k", 3))
    result = compact_whole_log(repo)
    assert result.stats.kept_versions == 0
    assert result.stats.dropped_deleted == 2


def test_write_after_delete_survives(repo):
    repo.append(write(b"k", 1, b"old"))
    repo.append(delete(b"k", 2))
    repo.append(write(b"k", 3, b"reborn"))
    result = compact_whole_log(repo)
    kept = [(key, ts) for _, _, key, ts, _ in indexed(result)]
    assert kept == [(b"k", 3)]


def test_uncommitted_transactional_writes_dropped(repo):
    repo.append(write(b"a", 1, b"committed", txn=10))
    repo.append(commit_record(10, 1))
    repo.append(write(b"b", 2, b"uncommitted", txn=11))  # no commit record
    result = compact_whole_log(repo)
    keys = [key for _, _, key, _, _ in indexed(result)]
    assert keys == [b"a"]
    assert result.stats.dropped_uncommitted == 1


def test_sorted_segments_are_slim_and_grouped(repo):
    repo.append(write(b"k1", 1, b"v", group="g1"))
    repo.append(write(b"k2", 2, b"v", group="g2"))
    result = compact_whole_log(repo)
    assert len(result.new_segments) == 2  # one per (table, group)
    for file_no in result.new_segments:
        assert repo.is_sorted_segment(file_no)


def test_old_segments_retired(repo):
    repo.append(write(b"k", 1, b"v"))
    old_segments = repo.segments()
    repo.roll()
    result = compact_whole_log(repo, old_segments)
    assert result.retired_segments == old_segments
    for file_no in old_segments:
        assert file_no not in repo.segments()


def test_pointers_into_sorted_segments_resolve(repo):
    repo.append(write(b"k", 5, b"payload"))
    result = compact_whole_log(repo)
    _, _, key, ts, pointer = indexed(result)[0]
    record = read_record(repo, pointer)
    assert record.key == key
    assert record.timestamp == ts
    assert record.value == b"payload"
    # Slim metadata reconstitutes table/group on decode.
    assert record.table == "t" and record.group == "g"


def test_compaction_reduces_storage(repo):
    for ts in range(1, 20):
        repo.append(write(b"hot", ts, b"x" * 200))
    before = repo.total_bytes()
    repo.roll()
    compact_whole_log(repo, max_versions=1)
    assert repo.total_bytes() < before


def test_recompaction_of_sorted_segments(repo):
    repo.append(write(b"a", 1, b"v1"))
    compact_whole_log(repo)
    repo.append(write(b"a", 2, b"v2"))
    result = compact_whole_log(repo)
    kept = [(key, ts) for _, _, key, ts, _ in indexed(result)]
    assert kept == [(b"a", 1), (b"a", 2)]


def test_rejects_bad_max_versions(repo):
    with pytest.raises(ValueError):
        compact_whole_log(repo, max_versions=0)


def test_compacted_txn_writes_become_auto_committed(repo):
    """Regression: compaction drops COMMIT records, so surviving
    transactional writes must be re-emitted as auto-committed — otherwise
    a later redo scan or log split treats them as uncommitted and loses
    them."""
    repo.append(write(b"k", 1, b"txn-value", txn=42))
    repo.append(commit_record(42, 1))
    compact_whole_log(repo)
    survivors = [
        record
        for file_no in repo.segments()
        for _, record in repo.scan_segment(file_no)
        if record.record_type is RecordType.WRITE
    ]
    assert len(survivors) == 1
    assert survivors[0].txn_id == 0
    assert survivors[0].value == b"txn-value"


def test_unowned_records_dropped_with_filter(repo):
    repo.append(write(b"mine", 1, b"keep"))
    repo.append(write(b"theirs", 2, b"drop"))
    result = compact_whole_log(repo, owned=lambda table, key: key == b"mine")
    kept = [key for _, _, key, _, _ in indexed(result)]
    assert kept == [b"mine"]
    assert result.stats.dropped_unowned == 1


def test_retain_after_expires_old_history_keeps_latest(repo):
    for ts in range(1, 7):
        repo.append(write(b"k", ts, b"v%d" % ts))
    result = compact_whole_log(repo, retain_after=4)
    kept_ts = [ts for _, _, _, ts, _ in indexed(result)]
    assert kept_ts == [4, 5, 6]
    assert result.stats.dropped_obsolete == 3


def test_retain_after_never_drops_only_version(repo):
    repo.append(write(b"ancient", 1, b"only"))
    result = compact_whole_log(repo, retain_after=100)
    kept = [(key, ts) for _, _, key, ts, _ in indexed(result)]
    assert kept == [(b"ancient", 1)]


def test_retain_after_composes_with_max_versions(repo):
    for ts in range(1, 9):
        repo.append(write(b"k", ts, b"v"))
    result = compact_whole_log(repo, max_versions=2, retain_after=3)
    kept_ts = [ts for _, _, _, ts, _ in indexed(result)]
    assert kept_ts == [7, 8]
