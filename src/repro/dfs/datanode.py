"""Datanode: stores replica payloads on a machine's simulated disk.

Each replica is held as a bytearray (the simulation's "disk contents")
while read/write *costs* are charged through the machine's
:class:`~repro.sim.disk.SimDisk`, keyed by block id so that sequential
appends to the same block are charged sequential-transfer cost and reads
elsewhere pay seeks.

Replica checksums are kept per fixed-size chunk, as HDFS keeps one per
``bytes.per.checksum``: an append extends only the tail chunk's CRC and a
verified read re-checksums only the chunks it touches.  The chunk is the
block cache's fill unit, so one cache fill verifies exactly one chunk.
"""

from __future__ import annotations

from repro.dfs.block_cache import DEFAULT_CHUNK_SIZE as CHECKSUM_CHUNK
from repro.errors import BlockCorruptionError, DataNodeDownError
from repro.sim.machine import Machine
from repro.util.crc import crc32c

# What the head of an append pipeline ships beside the payload: the
# replica offset it appended at and one CRC per checksum chunk touched.
ShippedChecksums = tuple[int, list[int]]


class DataNode:
    """One datanode process, co-located on a :class:`Machine`.

    Args:
        machine: the hosting machine.
        checksum_replicas: keep a CRC-32C per ``CHECKSUM_CHUNK`` bytes of
            every replica, so :meth:`verify_replica` can tell a damaged
            range from a clean one.  Log records carry their own frame
            CRC; this layer is what lets a *reader* pick another replica
            instead of handing bad bytes to the decoder.
    """

    def __init__(self, machine: Machine, checksum_replicas: bool = False) -> None:
        self.machine = machine
        self.checksum_replicas = checksum_replicas
        self._blocks: dict[int, bytearray] = {}
        # block id -> CRC of each chunk; only the last may be partial.
        self._checksums: dict[int, list[int]] = {}

    @property
    def name(self) -> str:
        """The hosting machine's name (datanodes are addressed by host)."""
        return self.machine.name

    @property
    def alive(self) -> bool:
        """Whether the hosting machine is up."""
        return self.machine.alive

    def fail(self) -> None:
        """Crash the hosting machine."""
        self.machine.fail()

    def _require_alive(self) -> None:
        if not self.alive:
            raise DataNodeDownError(f"datanode {self.name} is down")

    def has_block(self, block_id: int) -> bool:
        """Whether this datanode holds a replica of ``block_id``."""
        return block_id in self._blocks

    def block_length(self, block_id: int) -> int:
        """Current length of the local replica."""
        return len(self._blocks[block_id])

    def create_replica(self, block_id: int) -> None:
        """Allocate an empty replica for a new block."""
        self._require_alive()
        self._blocks[block_id] = bytearray()
        self._checksums[block_id] = []

    def checksums_for_append(
        self, block_id: int, data: bytes
    ) -> ShippedChecksums | None:
        """Chunk CRCs that appending ``data`` to the local replica would
        produce: the partial tail chunk's CRC continued over the bytes
        that complete it, then one fresh CRC per further chunk.  None
        when this datanode keeps no checksums.  Stores nothing."""
        if not self.checksum_replicas:
            return None
        offset = len(self._blocks[block_id])
        crcs: list[int] = []
        view = memoryview(data)
        pos = 0
        partial = offset % CHECKSUM_CHUNK
        if partial:
            pos = CHECKSUM_CHUNK - partial
            crcs.append(crc32c(view[:pos], self._checksums[block_id][-1]))
        for start in range(pos, len(view), CHECKSUM_CHUNK):
            crcs.append(crc32c(view[start : start + CHECKSUM_CHUNK]))
        return offset, crcs

    def append_replica(
        self, block_id: int, data: bytes, shipped: ShippedChecksums | None = None
    ) -> float:
        """Append ``data`` to the local replica, charging disk cost.

        Args:
            shipped: checksums the head of the pipeline already computed
                for this payload (:meth:`checksums_for_append` on the
                first replica).  Stored as they are when this replica is
                as long as the sender's; otherwise — and for a copy made
                by re-replication, which ships none — the datanode
                computes its own from the bytes it was handed.

        Returns:
            Seconds of disk time charged to the hosting machine.
        """
        self._require_alive()
        replica = self._blocks[block_id]
        cost = self.machine.disk.write_buffered(len(data))
        if self.checksum_replicas:
            offset = len(replica)
            if shipped is None or shipped[0] != offset:
                shipped = self.checksums_for_append(block_id, data)
            # Replaces the partial tail chunk's CRC, then extends.
            self._checksums[block_id][offset // CHECKSUM_CHUNK :] = shipped[1]
        replica.extend(data)
        return cost

    def read_cost(self, length: int) -> float:
        """Estimated disk cost of serving a ``length``-byte replica read,
        without charging anything.  Reflects the disk's current slowdown,
        so hedging and deadline enforcement can see a limping node before
        committing to it.  Conservative: assumes a random access."""
        return self.machine.disk.peek_cost(length)

    def read_replica(self, block_id: int, offset: int, length: int) -> tuple[bytes, float]:
        """Read ``length`` bytes of the replica at ``offset``.

        Returns:
            ``(payload, seconds_charged)``.

        Raises:
            DataNodeDownError: if the machine is down.
            BlockCorruptionError: if the read range exceeds the replica.
        """
        self._require_alive()
        replica = self._blocks[block_id]
        if offset + length > len(replica):
            raise BlockCorruptionError(
                f"read past end of block {block_id}: "
                f"offset={offset} length={length} have={len(replica)}"
            )
        cost = self.machine.disk.read(block_id, offset, length)
        return bytes(replica[offset : offset + length]), cost

    def verify_replica(
        self, block_id: int, offset: int = 0, length: int | None = None
    ) -> bool:
        """Re-checksum the chunks overlapping ``[offset, offset + length)``
        against their stored CRCs; the whole replica by default.

        Real work on every call — nothing is remembered as verified — but
        O(bytes read), not O(replica).  Damage is therefore found by a
        read that touches its chunk, or by a whole-replica call.  A
        missing replica answers False; always True when
        ``checksum_replicas`` is off (nothing to verify against)."""
        self._require_alive()
        replica = self._blocks.get(block_id)
        if replica is None:
            return False
        if not self.checksum_replicas:
            return True
        end = len(replica) if length is None else min(offset + length, len(replica))
        checksums = self._checksums[block_id]
        with memoryview(replica) as view:
            for chunk_no in range(offset // CHECKSUM_CHUNK, -(-end // CHECKSUM_CHUNK)):
                start = chunk_no * CHECKSUM_CHUNK
                if crc32c(view[start : start + CHECKSUM_CHUNK]) != checksums[chunk_no]:
                    return False
        return True

    def corrupt_replica(self, block_id: int, at: int = 0) -> None:
        """Flip one payload byte *without* updating its chunk's checksum —
        fault injection for read-path corruption tests.  The damage is only
        detectable when ``checksum_replicas`` is on and a reader verifies
        a range touching that chunk.

        Raises:
            KeyError: if this datanode holds no such replica.
        """
        replica = self._blocks[block_id]
        if not replica:
            raise ValueError(f"replica of block {block_id} is empty")
        replica[at % len(replica)] ^= 0xFF

    def drop_replica(self, block_id: int) -> None:
        """Delete the local replica (file deletion / re-replication)."""
        self._blocks.pop(block_id, None)
        self._checksums.pop(block_id, None)
