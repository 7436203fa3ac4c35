"""LSM-tree-specific tests: flushes, merges, bloom filters, block cache."""

import pytest

from repro.index.lsm import LSMTreeIndex
from repro.wal.record import LogPointer


def ptr(n: int) -> LogPointer:
    return LogPointer(1, n, 1)


@pytest.fixture
def lsm(dfs, machines):
    # Tiny memtable: flush every 8 entries; merge at 3 runs.
    return LSMTreeIndex(
        dfs, machines[0], "/lsm/idx", memtable_bytes=24 * 8, level0_limit=3
    )


def test_flush_creates_run(lsm):
    for i in range(8):
        lsm.insert(f"k{i}".encode(), i + 1, ptr(i))
    assert lsm.flushes >= 1
    assert lsm.run_count >= 1


def test_merge_caps_run_count(lsm):
    for i in range(100):
        lsm.insert(f"k{i:03d}".encode(), i + 1, ptr(i))
    assert lsm.merges >= 1
    assert lsm.run_count <= 4


def test_lookup_spans_memtable_and_runs(lsm):
    for i in range(20):
        lsm.insert(f"k{i:02d}".encode(), i + 1, ptr(i))
    # k00 flushed long ago; the newest insert is still in the memtable.
    assert lsm.lookup_latest(b"k00").timestamp == 1
    assert lsm.lookup_latest(b"k19").timestamp == 20


def test_versions_split_across_runs(lsm):
    # Write versions of one key interleaved with filler so flushes split them.
    ts = 0
    for round_no in range(4):
        ts += 1
        lsm.insert(b"hot", ts, ptr(ts))
        for i in range(7):
            ts += 1
            lsm.insert(f"fill-{round_no}-{i}".encode(), ts, ptr(ts))
    versions = [v.timestamp for v in lsm.versions(b"hot")]
    assert versions == sorted(versions)
    assert len(versions) == 4


def test_asof_falls_through_to_older_run(lsm):
    lsm.insert(b"k", 1, ptr(1))
    lsm.flush()
    lsm.insert(b"k", 10, ptr(10))
    lsm.flush()
    assert lsm.lookup_asof(b"k", 5).timestamp == 1


def test_probes_charge_disk_reads(lsm, machines):
    for i in range(24):
        lsm.insert(f"k{i:02d}".encode(), i + 1, ptr(i))
    lsm._block_cache.clear()
    before = machines[0].counters.get("disk.reads")
    lsm.lookup_latest(b"k00")
    assert machines[0].counters.get("disk.reads") > before


def test_block_cache_absorbs_repeat_probes(lsm, machines):
    for i in range(24):
        lsm.insert(f"k{i:02d}".encode(), i + 1, ptr(i))
    lsm.lookup_latest(b"k00")
    before = machines[0].counters.get("disk.reads")
    lsm.lookup_latest(b"k00")  # cached block, no new disk read
    assert machines[0].counters.get("disk.reads") == before


def test_bloom_filter_skips_absent_keys(lsm, machines):
    for i in range(8):
        lsm.insert(f"k{i}".encode(), i + 1, ptr(i))
    lsm._block_cache.clear()
    before = machines[0].counters.get("disk.reads")
    assert lsm.lookup_latest(b"definitely-absent-key") is None
    # With high probability the bloom filter avoided every block read.
    assert machines[0].counters.get("disk.reads") - before <= 1


def test_memory_stays_bounded_relative_to_entries(lsm):
    for i in range(200):
        lsm.insert(f"k{i:04d}".encode(), i + 1, ptr(i))
    # Resident memory is far below what a fully in-memory index would use.
    from repro.index.interface import ENTRY_BYTES

    assert lsm._memtable_entries * ENTRY_BYTES < 200 * ENTRY_BYTES


def test_merge_drops_deleted_keys_permanently(lsm, dfs):
    for i in range(8):
        lsm.insert(f"k{i}".encode(), i + 1, ptr(i))
    lsm.flush()
    lsm.delete_key(b"k3")
    # Force merges; the tombstoned key must not come back.
    for i in range(40):
        lsm.insert(f"fill{i:02d}".encode(), 100 + i, ptr(i))
    assert lsm.lookup_latest(b"k3") is None
