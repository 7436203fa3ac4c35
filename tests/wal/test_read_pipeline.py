"""Tests for the log read pipeline: coalesced batch reads, scan prefetch,
block-cache interaction with the log, and write-batch routing."""

import random

import pytest

from repro import LogBase, LogBaseConfig
from repro.dfs.filesystem import DFS
from repro.wal.record import LogRecord, RecordType
from repro.wal.repository import LogRepository
from tests.wal.helpers import read_record, read_records


def make_key(value: int) -> bytes:
    return str(value).zfill(12).encode()


def write_record(key: bytes, value: bytes, ts: int = 1) -> LogRecord:
    return LogRecord(
        record_type=RecordType.WRITE,
        table="t",
        tablet="t#0",
        key=key,
        group="g",
        timestamp=ts,
        value=value,
    )


@pytest.fixture
def tiny_block_dfs(machines):
    """DFS with 4 KiB blocks so batches straddle block boundaries."""
    return DFS(machines, replication=3, block_size=4096)


@pytest.fixture
def cached_tiny_dfs(machines):
    """Same, plus a block cache with chunks smaller than a block."""
    return DFS(
        machines,
        replication=3,
        block_size=4096,
        block_cache_bytes=1 << 20,
        block_cache_chunk=1024,
    )


def test_append_batch_straddles_block_boundary(tiny_block_dfs, machines):
    repo = LogRepository(tiny_block_dfs, machines[0], "/log", segment_size=1 << 20)
    records = [write_record(make_key(i), b"v" * 400, ts=i + 1) for i in range(30)]
    pairs = repo.append_batch(records)  # ~12 KB: spans several 4 KiB blocks
    meta = tiny_block_dfs.namenode.get_file(repo.segment_path(1))
    assert len(meta.blocks) >= 3
    for pointer, stamped in pairs:
        assert read_record(repo, pointer) == stamped


def test_read_many_spans_block_boundaries(cached_tiny_dfs, machines):
    repo = LogRepository(
        cached_tiny_dfs,
        machines[0],
        "/log",
        segment_size=1 << 20,
        coalesce_gap=64 * 1024,
    )
    pairs = repo.append_batch(
        [write_record(make_key(i), b"v" * 400, ts=i + 1) for i in range(30)]
    )
    pointers = [pointer for pointer, _ in pairs]
    assert read_records(repo, pointers) == [stamped for _, stamped in pairs]


@pytest.mark.parametrize("cached", [False, True])
def test_read_after_append_sees_fresh_tail(
    tiny_block_dfs, cached_tiny_dfs, machines, cached
):
    dfs = cached_tiny_dfs if cached else tiny_block_dfs
    repo = LogRepository(dfs, machines[0], "/log", segment_size=1 << 20)
    p1, r1 = repo.append(write_record(b"a", b"first"))
    assert read_record(repo, p1) == r1  # warms the reader (and cache, if enabled)
    p2, r2 = repo.append(write_record(b"b", b"second"))
    assert read_record(repo, p2) == r2  # the tail append must be visible
    assert read_record(repo, p1) == r1


@pytest.mark.parametrize("gap", [None, 0, 64 * 1024])
def test_read_many_preserves_input_order(dfs, machines, gap):
    repo = LogRepository(
        dfs, machines[0], "/log", segment_size=4096, coalesce_gap=gap
    )
    pairs = [
        repo.append(write_record(make_key(i), b"v" * 300, ts=i + 1))
        for i in range(40)
    ]
    assert len(repo.segments()) >= 2  # the batch crosses segments
    rng = random.Random(7)
    sample = rng.sample(pairs, len(pairs)) + [pairs[3], pairs[3]]  # duplicates too
    records = read_records(repo, [pointer for pointer, _ in sample])
    assert records == [stamped for _, stamped in sample]


def test_read_many_coalesces_adjacent_records(dfs, machines):
    repo = LogRepository(
        dfs, machines[0], "/log", segment_size=1 << 20, coalesce_gap=64 * 1024
    )
    pairs = repo.append_batch(
        [write_record(make_key(i), b"v" * 100, ts=i + 1) for i in range(50)]
    )
    before = machines[0].counters.get("log.read_many.spans")
    repo.read_many([pointer for pointer, _ in pairs])
    spans = machines[0].counters.get("log.read_many.spans") - before
    assert spans == 1  # 50 adjacent records, one span read
    assert machines[0].counters.get("log.read_many.records") >= 50


@pytest.mark.parametrize("prefetch", [0, 256, 1 << 20])
def test_scan_prefetch_yields_identical_records(dfs, machines, prefetch):
    repo = LogRepository(
        dfs, machines[0], "/log", segment_size=1 << 20, scan_prefetch=prefetch
    )
    appended = [
        repo.append(write_record(make_key(i), b"v" * 120, ts=i + 1))
        for i in range(40)
    ]
    scanned = list(repo.scan_segment(1))
    assert scanned == appended
    if prefetch == 256:
        # 40 records of ~180 B through a 256 B window needs many refills.
        assert machines[0].counters.get("log.scan.prefetch_windows") > 10


def test_scan_prefetch_stops_at_torn_tail(dfs, machines):
    repo = LogRepository(
        dfs, machines[0], "/log", segment_size=1 << 20, scan_prefetch=256
    )
    appended = [repo.append(write_record(make_key(i), b"v")) for i in range(5)]
    # Simulate a crash mid-append: raw garbage after the last full frame.
    repo._current._writer.append(b"\x00\x01partial-frame-gar")
    assert list(repo.scan_segment(1)) == appended


def test_compaction_retires_segment_from_block_cache(schema):
    config = LogBaseConfig.with_read_pipeline(segment_size=16 * 1024)
    db = LogBase(n_nodes=3, config=config)
    db.create_table(schema)
    for i in range(120):
        db.put("events", make_key(i * 1000), {"payload": {"body": b"x" * 200}})
    db.scan("events", "payload", make_key(0), make_key(200_000_000))

    dfs = db.cluster.dfs
    old_blocks: dict[str, list[int]] = {}
    warmed = 0
    for server in db.cluster.servers:
        cache = dfs.block_cache_for(server.machine)
        for file_no in server.log.segments():
            path = server.log.segment_path(file_no)
            for block in dfs.namenode.get_file(path).blocks:
                old_blocks.setdefault(server.name, []).append(block.block_id)
                warmed += len(cache.cached_chunks(block.block_id))
    assert warmed > 0  # the scan really did warm the caches

    db.compact_all()

    # Every retired segment's blocks must be gone from every cache.
    live_blocks = set()
    for server in db.cluster.servers:
        for file_no in server.log.segments():
            path = server.log.segment_path(file_no)
            for block in dfs.namenode.get_file(path).blocks:
                live_blocks.add(block.block_id)
    for server in db.cluster.servers:
        cache = dfs.block_cache_for(server.machine)
        for block_id in old_blocks.get(server.name, []):
            if block_id not in live_blocks:
                assert cache.cached_chunks(block_id) == []

    # And reads still come back correct after the swap.
    assert db.get("events", make_key(1000), "payload") == {"body": b"x" * 200}


def test_write_batch_routes_each_record_once(db):
    server = db.cluster.servers[0]
    tablet = next(iter(server.tablets.values()))
    base = int(tablet.key_range.start) if tablet.key_range.start else 0
    keys = [make_key(base + i) for i in range(3)]

    calls = 0
    original = server._route

    def counting_route(table, key):
        nonlocal calls
        calls += 1
        return original(table, key)

    server._route = counting_route
    try:
        # 3 items x 2 groups = 6 records, but only 3 routing lookups.
        timestamps = server.write_batch(
            "events",
            [(key, {"payload": b"v", "meta": b"m"}) for key in keys],
        )
    finally:
        server._route = original
    assert calls == 3
    assert len(timestamps) == 3
    for key, timestamp in zip(keys, timestamps):
        result = server.read("events", key, "payload")
        assert result == (timestamp, b"v")


def test_range_scan_batched_matches_lazy(schema):
    plain = LogBase(n_nodes=3, config=LogBaseConfig(segment_size=16 * 1024))
    piped = LogBase(
        n_nodes=3, config=LogBaseConfig.with_read_pipeline(segment_size=16 * 1024)
    )
    rng = random.Random(11)
    keys = [rng.randrange(2_000_000_000) for _ in range(200)]
    for database in (plain, piped):
        database.create_table(schema)
        for i, key in enumerate(keys):
            database.put(
                "events", make_key(key), {"payload": {"body": str(i).encode()}}
            )
    lo, hi = make_key(0), make_key(2_000_000_000)
    assert plain.scan("events", "payload", lo, hi) == piped.scan(
        "events", "payload", lo, hi
    )
    assert (
        piped.cluster.total_counters().get("log.read_many.records", 0) >= 200
    )
