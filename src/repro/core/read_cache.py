"""The tablet server's read buffer (§3.6.2).

One buffer per tablet server, byte-bounded, holding recently written and
recently read record versions.  "The read buffer is only for improving
read performance" — unlike HBase's memtable it holds no data that is not
already durable in the log, so it is purely optional (its existence and
size are configurable) and never needs flushing.

Only the *latest* version of a record is cached; historical reads always
go through the index to the log.
"""

from __future__ import annotations

from repro.util.lru import LRUCache, ReplacementPolicy

CacheKey = tuple[str, str, bytes]  # (table, group, key)


class ReadCache:
    """Byte-bounded cache of latest record versions.

    Args:
        capacity_bytes: maximum total size of cached values.
        policy: replacement strategy; defaults to LRU as in the paper,
            with the abstract interface allowing plug-in strategies.
    """

    def __init__(
        self,
        capacity_bytes: int,
        policy: ReplacementPolicy[CacheKey] | None = None,
    ) -> None:
        self._cache: LRUCache[CacheKey, tuple[int, bytes]] = LRUCache(
            byte_capacity=capacity_bytes,
            sizer=lambda versioned: len(versioned[1]) + 24,
            policy=policy,
        )

    def get(self, table: str, group: str, key: bytes) -> tuple[int, bytes] | None:
        """Cached (timestamp, value) of the latest version, or None."""
        return self._cache.get((table, group, key))

    def put(self, table: str, group: str, key: bytes, timestamp: int, value: bytes) -> None:
        """Cache a version if it is at least as new as the cached one."""
        entry = (table, group, key)
        cached = self._cache.peek(entry)
        if cached is None or cached[0] <= timestamp:
            self._cache.put(entry, (timestamp, value))

    def invalidate(self, table: str, group: str, key: bytes) -> None:
        """Drop the cached version (deletes must not serve stale data)."""
        self._cache.remove((table, group, key))

    def clear(self) -> None:
        """Drop everything (server crash simulation)."""
        self._cache.clear()

    @property
    def hits(self) -> int:
        """Number of cache hits so far."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Number of cache misses so far."""
        return self._cache.misses

    @property
    def bytes_used(self) -> int:
        """Current cached payload bytes."""
        return self._cache.bytes_used

    def __len__(self) -> int:
        return len(self._cache)
