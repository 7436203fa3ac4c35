"""Per-machine block cache for DFS reads.

Every machine that reads from the DFS may keep an LRU cache of
chunk-aligned windows over blocks (:class:`~repro.dfs.datanode.Window`:
the stored pieces, not a copy) — the role the OS page cache and HDFS
short-circuit read caching play under a real tablet server.  The cache sits
between :class:`~repro.dfs.filesystem.DFSReader` and the datanodes: a hit
is served from memory (no disk access, no seek), a miss reads one whole
chunk from a replica (one seek + chunk transfer) and installs it, so
repeated random reads over a warm working set stop paying the §3.5 "single
disk seek" per record that dominates Figures 8 and 10.

Chunks are immutable once cached: DFS files are append-only, so a full
chunk can never change.  Only the *partial* chunk at the tail of the block
being appended to is volatile — the write path invalidates exactly that
chunk (see ``DFS._append_to_block``), which keeps the rest of the active
segment warm across appends.
"""

from __future__ import annotations

from collections.abc import Sized

from repro.sim.metrics import (
    BLOCK_CACHE_EVICTIONS,
    BLOCK_CACHE_FILL_BYTES,
    BLOCK_CACHE_HITS,
    BLOCK_CACHE_MISSES,
    Counters,
)
from repro.util.lru import LRUCache

DEFAULT_CHUNK_SIZE = 64 * 1024


class BlockCache:
    """LRU cache of ``(block_id, chunk_no) -> chunk`` entries, each sized
    by its ``len``: the chunk's bytes, however it holds them.

    Args:
        capacity_bytes: total bytes of chunk payload counted.
        chunk_size: bytes per chunk (the fill/eviction unit).
        counters: the owning machine's counter bag; hit/miss/eviction
            counts are recorded there so :mod:`repro.core.stats` can
            surface them per server.
    """

    def __init__(
        self,
        capacity_bytes: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        counters: Counters | None = None,
    ) -> None:
        if capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        self.counters = counters if counters is not None else Counters()
        self._cache: LRUCache[tuple[int, int], tuple[Sized, bool]] = LRUCache(
            byte_capacity=capacity_bytes, sizer=lambda entry: len(entry[0])
        )
        # block id -> the chunk numbers filled since the block was last
        # dropped (a superset of those cached, as eviction does not prune it):
        # invalidating a block visits only these.
        self.blocks: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def bytes_used(self) -> int:
        """Total bytes of cached chunk payload."""
        return self._cache.bytes_used

    @property
    def hits(self) -> int:
        """Lifetime hit count."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Lifetime miss count."""
        return self._cache.misses

    @property
    def evictions(self) -> int:
        """Lifetime eviction count."""
        return self._cache.evictions

    def get(self, block_id: int, chunk_no: int, verified: bool = False) -> Sized | None:
        """The cached chunk, or None; records a hit/miss counter.  A
        ``verified`` get first drops the chunk if a plain read filled it."""
        key = (block_id, chunk_no)
        if verified and not self._cache.peek(key, (b"", True))[1]:
            self._cache.remove(key)
        entry = self._cache.get(key)
        self.counters.add(BLOCK_CACHE_HITS if entry is not None else BLOCK_CACHE_MISSES)
        return None if entry is None else entry[0]

    def put(self, block_id: int, chunk_no: int, data: Sized, verified: bool = False) -> None:
        """Install a chunk just read from a datanode, ``verified`` or not."""
        before = self._cache.evictions
        self._cache.put((block_id, chunk_no), (data, verified))
        self.blocks.setdefault(block_id, set()).add(chunk_no)
        self.counters.add(BLOCK_CACHE_FILL_BYTES, len(data))
        evicted = self._cache.evictions - before
        if evicted:
            self.counters.add(BLOCK_CACHE_EVICTIONS, evicted)

    def contains(self, block_id: int, chunk_no: int) -> bool:
        """Whether the chunk is cached (no counter side effects)."""
        return self._cache.peek((block_id, chunk_no)) is not None

    def invalidate_tail(self, block_id: int, block_length: int) -> None:
        """Drop the partial chunk covering byte ``block_length`` of
        ``block_id`` — called by the write path before an append extends
        the block, since only that chunk's cached entry can fall short."""
        self._cache.remove((block_id, block_length // self.chunk_size))

    def invalidate_block(self, block_id: int) -> None:
        """Drop every cached chunk of ``block_id`` (block deleted, e.g.
        compaction retired its segment)."""
        for chunk_no in self.blocks.pop(block_id, ()):
            self._cache.remove((block_id, chunk_no))

    def cached_chunks(self, block_id: int) -> list[int]:
        """Chunk numbers of ``block_id`` currently cached (tests and
        diagnostics)."""
        cache = self._cache
        return sorted(c for c in self.blocks.get(block_id, ()) if (block_id, c) in cache)

    def clear(self) -> None:
        """Drop everything (cold-read experiments); counters persist."""
        self._cache.clear()
        self.blocks.clear()
