"""Datanode: stores replica payloads on a machine's simulated disk.

Each replica is the list of immutable ``bytes`` payloads it was handed,
in append order, beside the running offsets they start and end at (the
simulation's "disk contents").  Nothing is copied on append: the pipeline hands every replica
of a block the same object, so a payload exists once however many
replicas hold it.  Read/write *costs* are charged through the machine's
:class:`~repro.sim.disk.SimDisk` from lengths alone, keyed by block id so
that sequential appends to the same block are charged sequential-transfer
cost and reads elsewhere pay seeks.

Replica checksums are kept per fixed-size chunk, as HDFS keeps one per
``bytes.per.checksum``: an append extends only the tail chunk's CRC and a
verified read re-checksums only the chunks it touches.  The chunk is the
block cache's fill unit, so one cache fill verifies exactly one chunk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.dfs.block_cache import DEFAULT_CHUNK_SIZE as CHECKSUM_CHUNK
from repro.errors import BlockCorruptionError, DataNodeDownError
from repro.sim.machine import Machine
from repro.util.crc import crc32c

# What the head of an append pipeline ships beside the payload: the
# replica offset it appended at and one CRC per checksum chunk touched.
ShippedChecksums = tuple[int, list[int]]


def _range(
    pieces: list[bytes], bounds: list[int], first: int, offset: int, end: int
) -> bytes:
    """Bytes ``[offset, end)`` of a replica, ``offset < end <= bounds[-1]``,
    where ``first = bisect_right(bounds, offset) - 1`` is the piece
    ``offset`` falls in: a slice of that piece, or one join across several."""
    start = bounds[first]
    if end <= bounds[first + 1]:
        return pieces[first][offset - start : end - start]
    last = bisect_left(bounds, end, first + 2) - 1
    parts = pieces[first : last + 1]
    parts[0] = parts[0][offset - start :]
    parts[-1] = parts[-1][: end - bounds[last]]
    return b"".join(parts)


class Window:
    """Replica bytes ``[start, end)`` as the stored pieces covering them,
    not a copy: what a block cache keeps of a chunk.  Its piece and bound
    lists are its own, so a later append, or :meth:`DataNode.corrupt_replica`
    swapping a piece in the replica's list, leaves the bytes it was taken with."""

    __slots__ = ("pieces", "bounds", "start", "end")

    def __init__(self, pieces: list[bytes], bounds: list[int], start: int, end: int) -> None:
        self.pieces, self.bounds, self.start, self.end = pieces, bounds, start, end

    def __len__(self) -> int:
        return self.end - self.start

    def read(self, offset: int, end: int) -> bytes:
        """Bytes ``[offset, end)``, ``start <= offset < end <= self.end``."""
        bounds = self.bounds
        return _range(self.pieces, bounds, bisect_right(bounds, offset) - 1, offset, end)


class DataNode:
    """One datanode process, co-located on a :class:`Machine`.

    Payloads are kept by reference and never written into; a stored byte
    only changes through :meth:`corrupt_replica`, which swaps a damaged
    copy of one piece into this replica alone.

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
        # block id -> (pieces, bounds): the payloads in append order, none
        # empty; piece i is replica bytes [bounds[i], bounds[i + 1]).
        self._blocks: dict[int, tuple[list[bytes], list[int]]] = {}
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
        return self._blocks[block_id][1][-1]

    def create_replica(self, block_id: int) -> None:
        """Allocate an empty replica for a new block."""
        self._require_alive()
        self._blocks[block_id] = ([], [0])
        self._checksums[block_id] = []

    def checksums_for_copy(self, block_id: int) -> ShippedChecksums | None:
        """What ships beside a whole-replica copy: the stored CRC of every
        chunk, from offset 0.  None when this datanode keeps none."""
        return (0, self._checksums[block_id]) if self.checksum_replicas else None

    def checksums_for_append(
        self, block_id: int, data: bytes
    ) -> ShippedChecksums | None:
        """Chunk CRCs that appending ``data`` to the local replica would
        produce: the partial tail chunk's CRC continued over the bytes
        that complete it, then one fresh CRC per further chunk.  None
        when this datanode keeps no checksums.  Stores nothing."""
        if not self.checksum_replicas:
            return None
        offset = self.block_length(block_id)
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

        ``data`` is kept, not copied: it must be immutable, and other
        replicas may hold the same object.

        Args:
            shipped: checksums computed elsewhere for this payload: by the
                head of the pipeline (:meth:`checksums_for_append` on the
                first replica), or the stored ones of the replica a
                re-replicated copy was read from.  Stored as they are when
                this replica is as long as the sender's offset; otherwise
                the datanode computes its own from the bytes it was handed.

        Returns:
            Seconds of disk time charged to the hosting machine.
        """
        machine = self.machine
        if not machine.alive:
            raise DataNodeDownError(f"datanode {machine.name} is down")
        pieces, bounds = self._blocks[block_id]
        offset = bounds[-1]
        cost = machine.disk.write_buffered(len(data))
        if self.checksum_replicas:
            if shipped is None or shipped[0] != offset:
                shipped = self.checksums_for_append(block_id, data)
            # Replaces the partial tail chunk's CRC, then extends.
            self._checksums[block_id][offset // CHECKSUM_CHUNK :] = shipped[1]
        if data:
            pieces.append(data)
            bounds.append(offset + len(data))
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
        if not self.machine.alive:
            raise DataNodeDownError(f"datanode {self.name} is down")
        pieces, bounds = self._blocks[block_id]
        have = bounds[-1]
        end = offset + length
        if end > have:
            raise BlockCorruptionError(
                f"read past end of block {block_id}: "
                f"offset={offset} length={length} have={have}"
            )
        cost = self.machine.disk.read(block_id, offset, length)
        if length <= 0:
            return b"", cost
        # A range inside one piece (every record read) is a slice of it,
        # which for the whole piece is the stored object itself, not a copy.
        first = bisect_right(bounds, offset) - 1
        return _range(pieces, bounds, first, offset, end), cost

    def window(self, block_id: int, offset: int, length: int) -> Window:
        """The local replica's bytes ``[offset, offset + length)``, which it
        holds, ``length > 0``, as a :class:`Window` over its pieces.
        Charges nothing: the caller has just paid to read them."""
        pieces, bounds = self._blocks[block_id]
        end = offset + length
        first = bisect_right(bounds, offset) - 1
        last = bisect_left(bounds, end, first + 1)
        return Window(pieces[first:last], bounds[first : last + 1], offset, end)

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
        pieces, bounds = replica
        have = bounds[-1]
        end = have if length is None else min(offset + length, have)
        checksums = self._checksums[block_id]
        for chunk_no in range(offset // CHECKSUM_CHUNK, -(-end // CHECKSUM_CHUNK)):
            start = chunk_no * CHECKSUM_CHUNK
            first = bisect_right(bounds, start) - 1
            chunk = _range(pieces, bounds, first, start, min(start + CHECKSUM_CHUNK, have))
            if crc32c(chunk) != checksums[chunk_no]:
                return False
        return True

    def corrupt_replica(self, block_id: int, at: int = 0) -> None:
        """Flip one payload byte *without* updating its chunk's checksum —
        fault injection for read-path corruption tests.  The damage is only
        detectable when ``checksum_replicas`` is on and a reader verifies
        a range touching that chunk.  Copy-on-write: the damaged piece is
        a new object, so replicas sharing the original are untouched.

        Raises:
            KeyError: if this datanode holds no such replica.
        """
        pieces, bounds = self._blocks[block_id]
        if not pieces:
            raise ValueError(f"replica of block {block_id} is empty")
        at %= bounds[-1]
        i = bisect_right(bounds, at) - 1
        piece, j = pieces[i], at - bounds[i]
        pieces[i] = piece[:j] + bytes([piece[j] ^ 0xFF]) + piece[j + 1 :]

    def drop_replica(self, block_id: int) -> None:
        """Delete the local replica (file deletion / re-replication)."""
        self._blocks.pop(block_id, None)
        self._checksums.pop(block_id, None)
