"""LSM-tree index: memtable + sorted runs in the DFS, LevelDB-style.

Used two ways in the paper's evaluation (§4.6):

* the **LRS** baseline indexes its on-disk log with LevelDB; and
* LogBase "can employ a similar method to LSM-tree for merging out part of
  the in-memory indexes into disks" when tablet-server memory is scarce.

Entries enter a memtable (bounded, default 4 MB as in the paper's LevelDB
write buffer).  A full memtable flushes to an immutable sorted *run* file
in the DFS: a sequence of ~4 KB blocks, with a sparse block index and a
Bloom filter kept in memory.  When enough level-0 runs accumulate they are
merged into a single run (a two-level simplification of LevelDB's leveled
compaction that preserves its read/write amplification shape).  Lookups
probe the memtable, then runs newest-to-oldest — each probe costs a block
read from the DFS unless the 8 MB block cache (paper's read buffer) hits
or the Bloom filter rules the run out.

Because write timestamps are globally monotonic, all versions of a key in
a newer run are strictly newer than those in older runs, so point lookups
stop at the first run that yields a match.

Re-inserting a (key, timestamp) that already sits in a run (recovery redo
replays do this) shadows the run copy with the memtable copy: lookups and
iteration always see the newest pointer, and the next merge removes the
duplicate.  Between such a re-insert and the merge, ``len()`` is an upper
bound rather than an exact count.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterator

from repro.dfs.filesystem import DFS
from repro.index.interface import ENTRY_BYTES, IndexEntry, MultiversionIndex
from repro.index.persist import decode_entries, encode_entries
from repro.sim.machine import Machine
from repro.util.bloom import BloomFilter
from repro.util.lru import LRUCache
from repro.util.varint import decode_uvarint, encode_uvarint
from repro.wal.record import LogPointer

Composite = tuple[bytes, int]

_BLOCK_TARGET = 4096


class _Run:
    """One immutable sorted run file with its in-memory metadata."""

    def __init__(
        self,
        run_id: int,
        path: str,
        block_index: list[tuple[Composite, int, int]],
        bloom: BloomFilter,
        entry_count: int,
        max_ts: int = 0,
    ) -> None:
        self.run_id = run_id
        self.path = path
        # (first composite of block, byte offset, byte length), ascending
        self.block_index = block_index
        self.bloom = bloom
        self.entry_count = entry_count
        # Newest timestamp in the run: lets point lookups prune runs that
        # cannot improve on the best version found so far.
        self.max_ts = max_ts

    def blocks_for_range(self, start: Composite, end_key: bytes | None) -> list[int]:
        """Indexes of blocks that may hold composites in [start, end)."""
        chosen = []
        for i, (first, _, _) in enumerate(self.block_index):
            next_first = (
                self.block_index[i + 1][0] if i + 1 < len(self.block_index) else None
            )
            if next_first is not None and next_first <= start:
                continue
            if end_key is not None and first[0] >= end_key:
                break
            chosen.append(i)
        return chosen


def _encode_block(entries: list[IndexEntry]) -> bytes:
    out = bytearray()
    out += encode_uvarint(len(entries))
    for entry in entries:
        out += encode_uvarint(len(entry.key))
        out += entry.key
        out += encode_uvarint(entry.timestamp)
        out += encode_uvarint(entry.pointer.file_no)
        out += encode_uvarint(entry.pointer.offset)
        out += encode_uvarint(entry.pointer.size)
    return bytes(out)


def _decode_block(payload: bytes) -> list[IndexEntry]:
    pos = 0
    count, pos = decode_uvarint(payload, pos)
    entries = []
    for _ in range(count):
        n, pos = decode_uvarint(payload, pos)
        key = payload[pos : pos + n]
        pos += n
        ts, pos = decode_uvarint(payload, pos)
        file_no, pos = decode_uvarint(payload, pos)
        offset, pos = decode_uvarint(payload, pos)
        size, pos = decode_uvarint(payload, pos)
        entries.append(IndexEntry(key, ts, LogPointer(file_no, offset, size)))
    return entries


class LSMTreeIndex(MultiversionIndex):
    """Multiversion index that spills sorted runs to the DFS.

    Args:
        dfs: file system for run files.
        machine: host whose clock pays for flush/probe I/O.
        root: DFS directory for this index's runs.
        memtable_bytes: flush threshold (paper/LevelDB default 4 MB).
        block_cache_bytes: read cache over run blocks (paper default 8 MB).
        level0_limit: level-0 run count that triggers a merge (LevelDB: 4).
    """

    def __init__(
        self,
        dfs: DFS,
        machine: Machine,
        root: str,
        *,
        memtable_bytes: int = 4 * 1024 * 1024,
        block_cache_bytes: int = 8 * 1024 * 1024,
        level0_limit: int = 4,
    ) -> None:
        self._dfs = dfs
        self._machine = machine
        self._root = root.rstrip("/")
        self._memtable_limit = memtable_bytes
        self._level0_limit = level0_limit
        # memtable: key -> sorted list of (timestamp, pointer)
        self._memtable: dict[bytes, list[tuple[int, LogPointer]]] = {}
        self._memtable_entries = 0
        self._runs: list[_Run] = []  # newest first
        self._run_ids = itertools.count(1)
        # key -> watermark: on-disk versions with timestamp <= watermark are
        # dead.  A watermark (not a set) keeps delete-then-reinsert correct:
        # a later insert carries a newer timestamp and survives the filter.
        self._deleted_below: dict[bytes, int] = {}
        # Explicitly re-inserted versions at/below a watermark (possible
        # through the raw index API, though system timestamps are
        # monotonic): exceptions to the watermark until the next merge.
        self._resurrected: set[Composite] = set()
        self._size = 0
        self._block_cache: LRUCache[tuple[int, int], list[IndexEntry]] = LRUCache(
            byte_capacity=block_cache_bytes,
            sizer=lambda block: len(block) * ENTRY_BYTES,
        )
        self.flushes = 0
        self.merges = 0

    def __len__(self) -> int:
        return self._size

    @property
    def run_count(self) -> int:
        """Number of on-DFS runs (diagnostics)."""
        return len(self._runs)

    def memory_bytes(self) -> int:
        """Resident bytes: memtable entries + run metadata + block cache."""
        meta = sum(
            run.bloom.size_bytes + len(run.block_index) * 48 for run in self._runs
        )
        return self._memtable_entries * ENTRY_BYTES + meta + self._block_cache.bytes_used

    # -- writes -----------------------------------------------------------------

    def insert(self, key: bytes, timestamp: int, pointer: LogPointer) -> None:
        if timestamp <= self._deleted_below.get(key, -1):
            self._resurrected.add((key, timestamp))
        versions = self._memtable.setdefault(key, [])
        for i, (ts, _) in enumerate(versions):
            if ts == timestamp:
                versions[i] = (timestamp, pointer)
                return
        versions.append((timestamp, pointer))
        versions.sort()
        self._memtable_entries += 1
        self._size += 1
        if self._memtable_entries * ENTRY_BYTES >= self._memtable_limit:
            self.flush()

    def delete_key(self, key: bytes) -> int:
        mem_versions = self._memtable.pop(key, [])
        self._memtable_entries -= len(mem_versions)
        on_disk = list(self._run_versions(key))
        if on_disk:
            self._deleted_below[key] = max(
                self._deleted_below.get(key, -1),
                max(e.timestamp for e in on_disk),
            )
        self._resurrected = {c for c in self._resurrected if c[0] != key}
        # A memtable copy may shadow the same logical version in a run
        # (redo re-inserts): count each removed version once.
        distinct = {ts for ts, _ in mem_versions} | {e.timestamp for e in on_disk}
        self._size -= len(distinct)
        return len(distinct)

    def _dead(self, entry: IndexEntry) -> bool:
        if entry.timestamp > self._deleted_below.get(entry.key, -1):
            return False
        return (entry.key, entry.timestamp) not in self._resurrected

    # -- flush & merge -------------------------------------------------------------

    def flush(self) -> None:
        """Write the memtable out as a new level-0 run."""
        if not self._memtable:
            return
        entries = [
            IndexEntry(key, ts, ptr)
            for key in sorted(self._memtable)
            for ts, ptr in self._memtable[key]
        ]
        self._memtable.clear()
        self._memtable_entries = 0
        self._runs.insert(0, self._write_run(entries))
        self.flushes += 1
        if len(self._runs) > self._level0_limit:
            self._merge_all()
        # The manifest is persisted at merges, not per flush (as real LSM
        # engines sync their MANIFEST lazily): a crash between merges
        # recovers the un-manifested runs' entries from the log redo.

    def _write_run(self, entries: list[IndexEntry]) -> _Run:
        run_id = next(self._run_ids)
        path = f"{self._root}/run-{run_id:08d}.sst"
        if self._dfs.exists(path):
            # An orphaned run from before a restart (flushed after the
            # last manifest sync): its entries were re-recovered from the
            # log, so the stale file is garbage — reclaim the slot.
            self._dfs.delete(path)
        bloom = BloomFilter(max(len(entries), 1))
        block_index: list[tuple[Composite, int, int]] = []
        writer = self._dfs.create(path, self._machine)
        block: list[IndexEntry] = []
        block_bytes = 0
        offset = 0
        for entry in entries:
            bloom.add(entry.key)
            block.append(entry)
            block_bytes += len(entry.key) + 24
            if block_bytes >= _BLOCK_TARGET:
                offset = self._emit_block(writer, block, block_index, offset)
                block, block_bytes = [], 0
        if block:
            self._emit_block(writer, block, block_index, offset)
        writer.close()
        max_ts = max((e.timestamp for e in entries), default=0)
        return _Run(run_id, path, block_index, bloom, len(entries), max_ts)

    @staticmethod
    def _emit_block(writer, block, block_index, offset) -> int:
        payload = _encode_block(block)
        writer.append(payload)
        block_index.append(((block[0].key, block[0].timestamp), offset, len(payload)))
        return offset + len(payload)

    def _merge_all(self) -> None:
        """Merge every run into one (the two-level compaction step).

        Duplicate composites (from redo re-inserts) collapse to the copy
        from the newest run, and the size counter re-converges to the
        exact entry count."""
        by_composite: dict[Composite, IndexEntry] = {}
        for run in reversed(self._runs):  # oldest first; newer overwrite
            for entry in self._scan_run(run):
                if not self._dead(entry):
                    by_composite[(entry.key, entry.timestamp)] = entry
        merged = [by_composite[c] for c in sorted(by_composite)]
        old = self._runs
        self._runs = [self._write_run(merged)] if merged else []
        for run in old:
            self._dfs.delete(run.path)
        self._deleted_below.clear()
        self._resurrected.clear()
        self._size = len(merged) + self._memtable_entries
        self.merges += 1
        self._persist_manifest()

    # -- manifest: run metadata surviving restarts (LevelDB's MANIFEST) --------------

    def _manifest_path(self) -> str:
        return f"{self._root}/MANIFEST"

    def _persist_manifest(self) -> None:
        """Record the live run set durably so a restarted index can reopen
        its runs instead of losing (and leaking) them."""
        doc = [
            {
                "run_id": run.run_id,
                "path": run.path,
                "entry_count": run.entry_count,
                "max_ts": run.max_ts,
                "num_hashes": run.bloom.num_hashes,
                "index": [
                    [key.hex(), ts, offset, length]
                    for (key, ts), offset, length in run.block_index
                ],
                "bloom": run.bloom.to_bytes().hex(),
            }
            for run in self._runs
        ]
        path = self._manifest_path()
        if self._dfs.exists(path):
            self._dfs.delete(path)
        writer = self._dfs.create(path, self._machine)
        writer.append(json.dumps(doc).encode())
        writer.close()

    def destroy(self) -> None:
        """Delete every run file and the manifest (the index was replaced,
        e.g. by a compaction rebuild)."""
        for run in self._runs:
            if self._dfs.exists(run.path):
                self._dfs.delete(run.path)
        self._runs = []
        if self._dfs.exists(self._manifest_path()):
            self._dfs.delete(self._manifest_path())

    def reopen(self) -> int:
        """Reload the run set from the manifest after a restart.

        The memtable's contents are gone (they are recovered by the redo
        scan, like every in-memory index); what the manifest restores is
        the flushed runs, so they are neither lost nor leaked.  Returns
        the number of runs reopened."""
        path = self._manifest_path()
        if not self._dfs.exists(path):
            return 0
        doc = json.loads(self._dfs.open(path, self._machine).read_all(verified=True).decode())
        self._runs = []
        max_run_id = 0
        total = 0
        for entry in doc:
            bloom = BloomFilter.from_bytes(
                bytes.fromhex(entry["bloom"]), entry["num_hashes"], entry["entry_count"]
            )
            block_index = [
                ((bytes.fromhex(key_hex), ts), offset, length)
                for key_hex, ts, offset, length in entry["index"]
            ]
            self._runs.append(
                _Run(
                    entry["run_id"],
                    entry["path"],
                    block_index,
                    bloom,
                    entry["entry_count"],
                    entry.get("max_ts", 0),
                )
            )
            max_run_id = max(max_run_id, entry["run_id"])
            total += entry["entry_count"]
        self._run_ids = itertools.count(max_run_id + 1)
        self._size = total + self._memtable_entries
        return len(self._runs)

    # -- run reads -------------------------------------------------------------------

    def _read_block(self, run: _Run, block_idx: int) -> list[IndexEntry]:
        cache_key = (run.run_id, block_idx)
        cached = self._block_cache.get(cache_key)
        if cached is not None:
            return cached
        _, offset, length = run.block_index[block_idx]
        payload = self._dfs.open(run.path, self._machine).read(offset, length, verified=True)
        block = _decode_block(payload)
        self._block_cache.put(cache_key, block)
        return block

    def _scan_run(self, run: _Run) -> Iterator[IndexEntry]:
        for block_idx in range(len(run.block_index)):
            yield from self._read_block(run, block_idx)

    def _run_versions(self, key: bytes) -> Iterator[IndexEntry]:
        """All live on-disk versions of ``key``, newest run first."""
        for run in self._runs:
            if not run.bloom.might_contain(key):
                continue
            for block_idx in run.blocks_for_range((key, 0), key + b"\x00"):
                for entry in self._read_block(run, block_idx):
                    if entry.key == key and not self._dead(entry):
                        yield entry

    # -- queries -----------------------------------------------------------------------

    def _memtable_versions(self, key: bytes) -> list[IndexEntry]:
        return [
            IndexEntry(key, ts, ptr) for ts, ptr in self._memtable.get(key, [])
        ]

    def lookup_latest(self, key: bytes) -> IndexEntry | None:
        mem = self._memtable_versions(key)
        best = mem[-1] if mem else None
        for run in self._runs:  # newest first
            # A run whose newest timestamp cannot beat the best so far is
            # skipped; with the system's monotonic timestamps this prunes
            # every older run after the first hit.
            if best is not None and run.max_ts <= best.timestamp:
                continue
            if not run.bloom.might_contain(key):
                continue
            hits = [
                entry
                for block_idx in run.blocks_for_range((key, 0), key + b"\x00")
                for entry in self._read_block(run, block_idx)
                if entry.key == key and not self._dead(entry)
            ]
            if hits:
                candidate = max(hits, key=lambda e: e.timestamp)
                if best is None or candidate.timestamp > best.timestamp:
                    best = candidate
        return best

    def lookup_asof(self, key: bytes, timestamp: int) -> IndexEntry | None:
        candidates = [
            entry for entry in self._memtable_versions(key) if entry.timestamp <= timestamp
        ]
        best = candidates[-1] if candidates else None
        for run in self._runs:
            if best is not None and run.max_ts <= best.timestamp:
                continue
            if not run.bloom.might_contain(key):
                continue
            hits = [
                entry
                for block_idx in run.blocks_for_range((key, 0), key + b"\x00")
                for entry in self._read_block(run, block_idx)
                if entry.key == key and entry.timestamp <= timestamp and not self._dead(entry)
            ]
            if hits:
                candidate = max(hits, key=lambda e: e.timestamp)
                if best is None or candidate.timestamp > best.timestamp:
                    best = candidate
        return best

    def versions(self, key: bytes) -> list[IndexEntry]:
        found = list(self._run_versions(key)) + self._memtable_versions(key)
        return sorted(found, key=lambda e: e.timestamp)

    def range_scan(self, start_key: bytes, end_key: bytes) -> Iterator[IndexEntry]:
        streams: list[Iterator[IndexEntry]] = [
            iter(
                IndexEntry(key, ts, ptr)
                for key in sorted(self._memtable)
                if start_key <= key < end_key
                for ts, ptr in self._memtable[key]
            )
        ]
        for run in self._runs:
            streams.append(self._run_range(run, start_key, end_key))
        yield from self._merge_streams(streams)

    def _run_range(
        self, run: _Run, start_key: bytes, end_key: bytes
    ) -> Iterator[IndexEntry]:
        for block_idx in run.blocks_for_range((start_key, 0), end_key):
            for entry in self._read_block(run, block_idx):
                if self._dead(entry):
                    continue
                if start_key <= entry.key < end_key:
                    yield entry

    @staticmethod
    def _merge_streams(streams: list[Iterator[IndexEntry]]) -> Iterator[IndexEntry]:
        import heapq

        heap: list[tuple[Composite, int, IndexEntry, Iterator[IndexEntry]]] = []
        for i, stream in enumerate(streams):
            first = next(stream, None)
            if first is not None:
                heapq.heappush(heap, ((first.key, first.timestamp), i, first, stream))
        seen: set[Composite] = set()
        while heap:
            composite, i, entry, stream = heapq.heappop(heap)
            if composite not in seen:
                seen.add(composite)
                yield entry
            nxt = next(stream, None)
            if nxt is not None:
                heapq.heappush(heap, ((nxt.key, nxt.timestamp), i, nxt, stream))

    def entries(self) -> Iterator[IndexEntry]:
        yield from self.range_scan(b"", b"\xff" * 64)

    # -- persistence hooks used by checkpointing --------------------------------------

    def snapshot_payload(self) -> bytes:
        """Serialized full contents (memtable + runs) for checkpointing."""
        return encode_entries(list(self.entries()))

    @classmethod
    def restore(
        cls, payload: bytes, dfs: DFS, machine: Machine, root: str, **kwargs
    ) -> "LSMTreeIndex":
        """Rebuild an index from :meth:`snapshot_payload` output."""
        index = cls(dfs, machine, root, **kwargs)
        for entry in decode_entries(payload):
            index.insert(entry.key, entry.timestamp, entry.pointer)
        return index
