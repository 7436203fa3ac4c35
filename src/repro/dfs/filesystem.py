"""DFS facade: append-only files over replicated blocks.

Writes run a synchronous replication pipeline: the payload is appended to
the first replica (normally the writer's local datanode), streamed once
down the pipeline to the remaining replicas, and the append returns only
after every replica has acknowledged — mirroring HDFS's hflush semantics
that both LogBase and HBase depend on for durability (Guarantee 1).

Cost accounting: the writer's clock advances by its local disk write plus
one pipelined network transfer plus a replication acknowledgement latency;
each remote replica's machine clock advances by its own disk write.  With
every machine in the cluster simultaneously writing and receiving replica
streams, the cluster-wide makespan therefore reflects the 3x disk traffic
that n-way replication creates — the effect that bounds load throughput in
the paper's Figure 11.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.dfs.block import BlockInfo, FileMeta
from repro.dfs.block_cache import DEFAULT_CHUNK_SIZE, BlockCache
from repro.dfs.datanode import DataNode
from repro.dfs.namenode import NameNode
from repro.errors import (
    BlockCorruptionError,
    DataNodeDownError,
    DeadlineExceededError,
    DFSError,
    FileClosedError,
    FileNotFoundInDFS,
    ReplicaCorruptError,
)
from repro.obs.trace import span
from repro.sim.deadline import current_deadline
from repro.sim.failure import CP_DFS_APPEND, CP_DFS_REREPLICATE, crash_point
from repro.sim.health import GrayPolicy, HealthMonitor
from repro.sim.machine import Machine
from repro.sim.metrics import (
    DEADLINES_EXCEEDED,
    DFS_CORRUPT_REPLICAS,
    DFS_HEDGE_FIRED,
    DFS_HEDGE_LOSSES,
    DFS_HEDGE_WINS,
    DFS_APPEND_ROUND_TRIPS,
    DFS_READ_FAILOVERS,
    DFS_REREPLICATIONS,
    DFS_UNDER_REPLICATED,
    BREAKER_SKIPS,
    SPAN_DFS_APPEND,
    SPAN_DFS_HEDGE_LOSER,
    SPAN_DFS_HEDGE_WINNER,
    SPAN_DFS_READ,
)
from repro.sim.network import NetworkModel

DEFAULT_BLOCK_SIZE = 64 * 1024 * 1024


class _AckDeferral:
    """Replication-ack seconds collected instead of charged (see
    :func:`defer_replication_acks`)."""

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0


_ACK_DEFERRAL: _AckDeferral | None = None


@contextmanager
def defer_replication_acks():
    """Collect the synchronous replication-ack wait instead of charging it
    to the writer's clock.

    Inside this scope an append still pays its disk writes and the
    pipelined data transfer, but the ack leg that normally stalls the
    writer is accumulated on the yielded collector.  The group-commit
    coordinator uses this to pipeline: the next group's data starts
    streaming while the previous group's acks drain, and each member is
    acked only once its own group's deferred wait has elapsed.  Scopes
    nest (the inner collector shadows the outer one, matching how one
    flush owns the pipeline at a time).
    """
    global _ACK_DEFERRAL
    previous = _ACK_DEFERRAL
    deferral = _AckDeferral()
    _ACK_DEFERRAL = deferral
    try:
        yield deferral
    finally:
        _ACK_DEFERRAL = previous


class DFS:
    """The distributed file system shared by every server in the cluster.

    Args:
        machines: hosts to run one datanode on each.
        replication: synchronous replication factor (paper default: 3).
        block_size: maximum bytes per block (paper default: 64 MB).
        block_cache_bytes: per-machine block-cache capacity; 0 disables
            caching entirely (reads hit the datanodes directly, the seed
            cost model).
        block_cache_chunk: cache fill/eviction unit in bytes.
        checksum_replicas: every datanode (including ones added later)
            keeps a CRC-32C per 64 KiB chunk of each replica; an append
            computes them once at the head of the pipeline and ships them
            to every replica with the bytes.  A plain read never checks
            them: the format checks its own bytes, and only a *verified*
            read (:meth:`DFSReader.read`), made after that check fails or
            for a file with no checksum, serves from a replica whose
            chunks match and prunes one that does not.
        degraded_allocation: allocate new blocks on however many
            datanodes are live (queued for repair) instead of refusing
            writes when fewer than ``replication`` survive.  Off by
            default — the seed's strict behaviour.
        gray: gray-failure resilience policy (hedged replica reads,
            per-datanode circuit breakers); ``None`` — the default —
            disables the layer entirely and keeps the seed read path.
    """

    def __init__(
        self,
        machines: list[Machine],
        replication: int = 3,
        block_size: int = DEFAULT_BLOCK_SIZE,
        checksum_replicas: bool = False,
        block_cache_bytes: int = 0,
        block_cache_chunk: int = DEFAULT_CHUNK_SIZE,
        degraded_allocation: bool = False,
        gray: GrayPolicy | None = None,
    ) -> None:
        if not machines:
            raise ValueError("a DFS needs at least one machine")
        self.block_size = block_size
        self.checksum_replicas = checksum_replicas
        self.gray = gray
        self.health: HealthMonitor | None = (
            HealthMonitor(gray) if gray is not None else None
        )
        self.block_cache_bytes = block_cache_bytes
        self.block_cache_chunk = block_cache_chunk
        self._block_caches: dict[str, BlockCache] = {}
        self.network: NetworkModel = machines[0].network
        self.namenode = NameNode(
            replication=min(replication, len(machines)),
            allow_degraded=degraded_allocation,
        )
        self.datanodes: dict[str, DataNode] = {}
        for machine in machines:
            node = DataNode(machine, checksum_replicas=checksum_replicas)
            self.datanodes[node.name] = node
            self.namenode.register_datanode(node.name, machine.rack)

    def rereplicate(self, strict: bool = True) -> int:
        """Restore the replication factor of under-replicated blocks.

        Real HDFS does this continuously when datanodes die; here it is a
        sweep: for every block with fewer live replicas than the
        replication factor, a surviving replica is copied to a live
        datanode that lacks one.  Targets are rack-aware (racks without a
        replica are preferred), dead entries are pruned from the block's
        locations, and a target holding a *stale* copy (e.g. a revived
        node) drops it and receives a fresh one.  Liveness is re-checked
        per block and per copy so that a source dying mid-pass fails over
        to another survivor.  Queued block ids that no file owns any more
        are discarded, so a stray report cannot keep the heartbeat
        sweeping forever.  Returns the number of new replicas created.

        Args:
            strict: raise on a block with no live replica (data loss).
                The background heartbeat pass uses ``strict=False``, which
                skips such blocks and leaves them queued.

        Raises:
            DFSError: in strict mode, if a block has no live replica left.
        """
        created = 0
        owned: set[int] = set()
        for path in self.namenode.list_files():
            for block in self.namenode.get_file(path).blocks:
                owned.add(block.block_id)
                created += self._rereplicate_block(path, block, strict)
        self.namenode.under_replicated &= owned
        return created

    def _rereplicate_block(self, path: str, block: BlockInfo, strict: bool) -> int:
        def lost() -> int:
            if strict:
                raise DFSError(
                    f"block {block.block_id} of {path} has no live replica"
                )
            return 0

        alive = self._alive()
        live = [loc for loc in block.locations if loc in alive]
        if not live:
            return lost()
        if len(live) != len(block.locations):
            block.locations[:] = live
        want = min(self.namenode.replication, len(alive))
        if len(live) >= want:
            self.namenode.clear_under_replicated(block.block_id)
            return 0
        crash_point(CP_DFS_REREPLICATE, block=block.block_id, path=path)
        # Rack-aware target choice: racks not yet holding a replica first.
        # Sorted so the sweep is deterministic (``alive`` is a set and
        # string hashing is randomized per process).
        live_racks = {self.namenode.rack_of(name) for name in live}
        candidates = sorted(name for name in alive if name not in live)
        targets = [
            n for n in candidates if self.namenode.rack_of(n) not in live_racks
        ] + [n for n in candidates if self.namenode.rack_of(n) in live_racks]
        created = 0
        for target_name in targets[: want - len(live)]:
            # The source may have died mid-pass (e.g. a fault fired at the
            # crash point above) or hold damaged bytes: fall back to any
            # remaining live replica that verifies.
            source = self._copy_source(block, live)
            if source is None:
                block.locations[:] = [n for n in live if self.datanodes[n].alive]
                return created if created else lost()
            target = self.datanodes[target_name]
            if not target.alive:
                continue
            if not self.network.reachable(source.name, target_name):
                # Partitioned off from the source: leave the block queued;
                # the heartbeat retries after the partition heals.
                continue
            if target.has_block(block.block_id):
                # Stale copy from before this node was revived; replace it.
                target.drop_replica(block.block_id)
            payload, _ = source.read_replica(
                block.block_id, 0, source.block_length(block.block_id)
            )
            source.machine.send(target.machine, len(payload))
            target.create_replica(block.block_id)
            # The copy is checked against the checksums the source just
            # verified, not ones the target computes over what arrived.
            target.append_replica(
                block.block_id, payload, source.checksums_for_copy(block.block_id)
            )
            block.locations.append(target_name)
            live.append(target_name)
            target.machine.counters.add(DFS_REREPLICATIONS)
            created += 1
        if len(live) >= want:
            self.namenode.clear_under_replicated(block.block_id)
        else:
            self.namenode.report_under_replicated(block.block_id)
        return created

    def _copy_source(self, block: BlockInfo, live: list[str]) -> DataNode | None:
        """The first live replica in ``live`` to copy ``block`` from.  With
        replica checksums on it must verify end to end; one that does not
        is dropped, from ``live`` too, as a failed verified read drops it."""
        for name in list(live):
            node = self.datanodes[name]
            if not node.alive:
                continue
            if not self.checksum_replicas or node.verify_replica(block.block_id):
                return node
            live.remove(name)
            self._drop_bad_replica(block, node, node.machine, corrupt=True)
        return None

    def heartbeat(self) -> int:
        """One background repair tick, as the namenode would run off
        datanode heartbeats: if any block has been reported
        under-replicated, sweep and restore replication.  Non-strict —
        blocks with no live replica stay queued rather than raising from
        a background pass.  Returns replicas created."""
        if not self.namenode.under_replicated:
            return 0
        return self.rereplicate(strict=False)

    def add_machine(self, machine: Machine) -> DataNode:
        """Start a datanode on a newly provisioned machine (elastic
        scale-out: new blocks may be placed on it immediately)."""
        node = DataNode(machine, checksum_replicas=self.checksum_replicas)
        self.datanodes[node.name] = node
        self.namenode.register_datanode(node.name, machine.rack)
        return node

    # -- helpers -------------------------------------------------------------

    def _alive(self) -> set[str]:
        return {name for name, node in self.datanodes.items() if node.alive}

    def datanode(self, name: str) -> DataNode:
        """The datanode co-located on machine ``name``."""
        return self.datanodes[name]

    # -- block caches ---------------------------------------------------------

    def block_cache_for(self, machine: Machine) -> BlockCache | None:
        """``machine``'s block cache (created lazily), or None when block
        caching is disabled for this DFS."""
        if self.block_cache_bytes <= 0:
            return None
        cache = self._block_caches.get(machine.name)
        if cache is None:
            cache = BlockCache(
                self.block_cache_bytes,
                chunk_size=self.block_cache_chunk,
                counters=machine.counters,
            )
            self._block_caches[machine.name] = cache
        return cache

    def drop_block_caches(self) -> None:
        """Empty every machine's block cache (cold-read experiments)."""
        for cache in self._block_caches.values():
            cache.clear()

    def _invalidate_cached_tail(self, block_id: int, old_length: int) -> None:
        for cache in self._block_caches.values():
            cache.invalidate_tail(block_id, old_length)

    def _invalidate_cached_block(self, block_id: int) -> None:
        for cache in self._block_caches.values():
            cache.invalidate_block(block_id)

    # -- namespace operations -------------------------------------------------

    def create(self, path: str, writer: Machine) -> "DFSWriter":
        """Create ``path`` and return an append-only writer bound to
        ``writer`` (the machine doing the writing)."""
        self.namenode.create_file(path)
        return DFSWriter(self, path, writer)

    def open_for_append(self, path: str, writer: Machine) -> "DFSWriter":
        """Reopen an existing file for further appends."""
        self.namenode.get_file(path)
        return DFSWriter(self, path, writer)

    def open(self, path: str, reader: Machine) -> "DFSReader":
        """Open ``path`` for positional reads on behalf of ``reader``."""
        meta = self.namenode.get_file(path)
        return DFSReader(self, meta, reader)

    def exists(self, path: str) -> bool:
        """Whether ``path`` exists."""
        return self.namenode.exists(path)

    def delete(self, path: str) -> None:
        """Delete ``path`` and drop all of its replicas."""
        meta = self.namenode.delete_file(path)
        for block in meta.blocks:
            self._invalidate_cached_block(block.block_id)
            self.namenode.clear_under_replicated(block.block_id)
            for location in block.locations:
                node = self.datanodes.get(location)
                if node is not None and node.alive:
                    node.drop_replica(block.block_id)

    def rename(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` to ``dst``."""
        self.namenode.rename(src, dst)

    def install(
        self, path: str, payload: bytes, writer: Machine, before_swap=None
    ) -> None:
        """Atomically replace ``path`` with a file holding ``payload``.

        The bytes land in ``path + ".tmp"`` first and are renamed over
        ``path`` only once complete, so a crash at any point — including
        inside the append — leaves the previous file, or none, never a
        torn one.  ``before_swap`` runs between the write and the swap
        (callers hang their crash point there).
        """
        tmp = path + ".tmp"
        if self.exists(tmp):
            self.delete(tmp)  # stale leftover from a crashed writer
        handle = self.create(tmp, writer)
        handle.append(payload)
        handle.close()
        if before_swap is not None:
            before_swap()
        if self.exists(path):
            self.delete(path)
        self.rename(tmp, path)

    def list_files(self, prefix: str = "") -> list[str]:
        """Paths under ``prefix``, sorted."""
        return self.namenode.list_files(prefix)

    def file_length(self, path: str) -> int:
        """Length of ``path`` in bytes."""
        return self.namenode.get_file(path).length

    # -- replication internals -------------------------------------------------

    def _append_to_block(self, block: BlockInfo, data: bytes, writer: Machine) -> None:
        """Run the synchronous replication pipeline for one append.

        A replica that is dead or unreachable — whether it failed before
        this append or dies mid-pipeline — is pruned from the block's
        locations and counted in ``dfs.under_replicated``; the write
        completes on the survivors (HDFS pipeline recovery) and the
        heartbeat pass restores the replication factor later.
        """
        # Only the partial chunk at the old tail can hold stale cached
        # bytes after this append; full chunks are immutable.
        block_id = block.block_id
        self._invalidate_cached_tail(block_id, block.length)
        writer_name = writer.name
        crash_point(CP_DFS_APPEND, block=block_id, writer=writer_name)
        writer.counters.add(DFS_APPEND_ROUND_TRIPS)
        network = self.network
        reachable = network.reachable
        # A location is its datanode's machine name: each is resolved once
        # and checked once per pipeline stage, here and at its turn below.
        live: list[tuple[DataNode, Machine, str]] = []
        dead: list[str] = []
        for name in block.locations:
            node = self.datanodes[name]
            machine = node.machine
            if machine.alive and reachable(writer_name, name):
                live.append((node, machine, name))
            else:
                dead.append(name)
        if not live:
            raise DFSError(f"no live replica for block {block_id}")
        (primary, primary_machine, primary_name), *secondaries = live
        size = len(data)
        # The writer streams to the primary (loopback when co-located)...
        writer.send(primary_machine, size)
        # ...with the payload's chunk checksums computed once, here, and
        # shipped to every replica beside the bytes (HDFS carries them in
        # the packet) rather than recomputed per replica.
        shipped = primary.checksums_for_append(block_id, data)
        primary.append_replica(block_id, data, shipped)
        # ...which pipelines once to the remaining replicas; remote disks pay
        # their own write cost on their own clocks.  A limping link slows
        # both the replica transfer and that replica's ack leg, so a slow
        # link inside the pipeline stretches the synchronous append — the
        # gray failure mode the link-limp chaos schedule exercises.
        acked = 0.0
        for replica, machine, name in secondaries:
            # A fault may kill or partition a secondary between the liveness
            # check above and its turn in the pipeline; drop it and go on.
            if not machine.alive or not reachable(primary_name, name):
                dead.append(name)
                continue
            primary_machine.counters.add("net.bytes_sent", size)
            machine.clock.advance(
                network.transfer_cost(size, a=primary_name, b=name)
            )
            replica.append_replica(block_id, data, shipped)
            acked += network.links.factor(primary_name, name)
        # Synchronous ack travels back up the pipeline before return —
        # unless a group-commit flush is deferring acks to overlap the
        # next group's data stream with this one's ack drain.
        ack_wait = network.latency * acked
        if _ACK_DEFERRAL is not None:
            _ACK_DEFERRAL.seconds += ack_wait
        else:
            writer.clock.advance(ack_wait)
        block.length += size
        if dead:
            self._prune_replicas(block, dead, writer)

    def _prune_replicas(
        self, block: BlockInfo, dead: list[str], machine: Machine
    ) -> None:
        """Drop failed replicas from ``block``'s locations and queue the
        block for heartbeat-driven re-replication."""
        block.locations[:] = [n for n in block.locations if n not in dead]
        machine.counters.add(DFS_UNDER_REPLICATED, len(dead))
        self.namenode.report_under_replicated(block.block_id)

    def _drop_bad_replica(
        self, block: BlockInfo, node: DataNode, machine: Machine, corrupt: bool
    ) -> None:
        """Prune a replica that could not serve a read ``machine`` made,
        counting the failover (and the corruption) on ``machine``."""
        self._prune_replicas(block, [node.name], machine)
        machine.counters.add(DFS_READ_FAILOVERS)
        if corrupt:
            machine.counters.add(DFS_CORRUPT_REPLICAS)


class DFSWriter:
    """Append-only handle on a DFS file.

    Appends that overflow the current block allocate a new one; an append
    never spans a block boundary unless the payload itself is bigger than
    a block, in which case it is split.
    """

    def __init__(self, dfs: DFS, path: str, writer: Machine) -> None:
        self._dfs = dfs
        self._path = path
        self._writer = writer
        self._closed = False

    @property
    def path(self) -> str:
        """The file being written."""
        return self._path

    @property
    def length(self) -> int:
        """Current file length (== offset of the next append)."""
        return self._dfs.namenode.get_file(self._path).length

    def append(self, data: bytes) -> int:
        """Durably append ``data``; returns the starting file offset.

        The call returns only after every replica holds the bytes
        (synchronous replication).

        Raises:
            FileClosedError: if the writer has been closed.
        """
        if self._closed:
            raise FileClosedError(self._path)
        if not isinstance(data, bytes):
            # Replicas keep the object they are handed: a mutable buffer
            # is copied once, here, so the caller cannot change it later.
            data = bytes(data)
        with span(SPAN_DFS_APPEND, self._writer, bytes=len(data)):
            meta = self._dfs.namenode.get_file(self._path)
            start_offset = meta.length
            pos = 0
            while pos < len(data):
                block = self._current_block(meta)
                room = self._dfs.block_size - block.length
                # Unsliced when it fits: replicas store this very object.
                chunk = data if not pos and len(data) <= room else data[pos : pos + room]
                pos += len(chunk)
                self._dfs._append_to_block(block, chunk, self._writer)
            return start_offset

    def _current_block(self, meta: FileMeta) -> BlockInfo:
        if meta.blocks and meta.blocks[-1].length < self._dfs.block_size:
            return meta.blocks[-1]
        block = self._dfs.namenode.allocate_block(
            self._path, self._writer.name, self._dfs._alive()
        )
        for location in block.locations:
            self._dfs.datanodes[location].create_replica(block.block_id)
        return block

    def close(self) -> None:
        """Finalize the file; further appends raise."""
        self._closed = True
        self._dfs.namenode.get_file(self._path).closed = True


class DFSReader:
    """Positional reader over a DFS file.

    Reads prefer the replica co-located with the reader (HDFS short-circuit
    reads), then any replica on the reader's rack, then any live replica.
    """

    def __init__(self, dfs: DFS, meta: FileMeta, reader: Machine) -> None:
        self._dfs = dfs
        self._meta = meta
        self._reader = reader

    @property
    def length(self) -> int:
        """Current file length."""
        return self._meta.length

    @property
    def machine(self) -> Machine:
        """The machine this reader charges costs to."""
        return self._reader

    def refresh(self) -> None:
        """Re-fetch the file's metadata from the namenode.

        Lets a long-lived reader observe appends that happened after it
        was opened without re-opening the file (the log repository keeps
        one reader per segment across appends)."""
        self._meta = self._dfs.namenode.get_file(self._meta.path)

    def read(self, offset: int, length: int, *, verified: bool = False) -> bytes:
        """Read ``length`` bytes starting at file ``offset``.

        A plain read checks no replica checksum.  A ``verified`` one serves
        only cached chunks a verified read filled, and fills the rest from
        a replica whose chunk checksums match (plain if the DFS keeps none).

        Raises:
            FileNotFoundInDFS: if the range is beyond the end of file.
        """
        blocks = self._meta.blocks
        first, pos = 0, offset
        while first < len(blocks) and pos >= blocks[first].length:
            pos -= blocks[first].length
            first += 1
        # A range inside one block (every record read) is inside the file
        # and is that block's read as it is: no EOF sum, no join.
        inside = first < len(blocks) and pos + length <= blocks[first].length
        if not inside and offset + length > self._meta.length:
            raise FileNotFoundInDFS(
                f"read past EOF of {self._meta.path}: "
                f"offset={offset} length={length} file={self._meta.length}"
            )
        # Anchored on the READER: remote disk waits and transfers are
        # mirror-charged to the reader's clock by _fetch, so the span's
        # own duration already covers them.
        with span(SPAN_DFS_READ, self._reader, bytes=length):
            if inside and length:
                return self._read_from_block(blocks[first], pos, length, verified)
            parts = []
            remaining = length
            for block in blocks[first:]:
                if not remaining:
                    break
                take = min(block.length - pos, remaining)
                parts.append(self._read_from_block(block, pos, take, verified))
                remaining -= take
                pos = 0
            return b"".join(parts)

    def read_all(self, *, verified: bool = False) -> bytes:
        """Read the whole file sequentially (see :meth:`read`)."""
        return self.read(0, self._meta.length, verified=verified)

    def _read_from_block(
        self, block: BlockInfo, offset: int, length: int, verified: bool
    ) -> bytes:
        verify = verified and self._dfs.checksum_replicas
        cache = self._dfs.block_cache_for(self._reader)
        if cache is not None:
            return self._read_through_cache(cache, block, offset, length, verify)
        payload, local = self._fetch(block, offset, length, verify)
        if local:
            self._reader.clock.advance(self._dfs.network.local_latency)
        return payload

    def _fetch(
        self, block: BlockInfo, offset: int, length: int, verify: bool
    ) -> tuple[bytes, bool]:
        """A failover read, charging a remote replica's disk and transfer to
        the reader; ``(payload, served locally)``."""
        payload, cost, node = self._failover_read(block, offset, length, verify)
        if node.machine is self._reader:
            return payload, True
        self._reader.clock.advance(
            cost + self._dfs.network.transfer_cost(length, a=node.name, b=self._reader.name)
        )
        self._reader.counters.add("net.bytes_received", length)
        return payload, False

    def _read_through_cache(
        self, cache: "BlockCache", block: BlockInfo, offset: int, length: int,
        verify: bool,
    ) -> bytes:
        """Serve the range chunk-by-chunk through the reader's block cache.

        A hit costs memory only (the per-call local latency below); a miss
        reads the *whole* chunk from a replica — one seek plus a
        chunk-sized transfer charged exactly as a direct read of that
        range would be — and installs it for later hits.
        """
        chunk_size = cache.chunk_size
        self._reader.clock.advance(self._dfs.network.local_latency)
        parts: list[bytes] = []
        first = offset // chunk_size
        last = (offset + length - 1) // chunk_size
        for chunk_no in range(first, last + 1):
            chunk_start = chunk_no * chunk_size
            data = cache.get(block.block_id, chunk_no, verify)
            if data is None:
                take = min(chunk_size, block.length - chunk_start)
                data, _ = self._fetch(block, chunk_start, take, verify)
                cache.put(block.block_id, chunk_no, data, verify)
            lo = max(offset, chunk_start) - chunk_start
            hi = min(offset + length, chunk_start + len(data)) - chunk_start
            parts.append(data[lo:hi])
        return b"".join(parts)

    def _serve_estimate(self, node: DataNode, length: int) -> float:
        """Estimated seconds for ``node`` to serve a ``length``-byte read
        to this reader (disk + transfer for remote replicas), without
        charging anything.  Reflects disk and link slowdowns, which is
        how hedging and deadline enforcement see a limping replica
        *before* committing to it."""
        est = node.read_cost(length)
        if node.machine is not self._reader:
            est += self._dfs.network.transfer_cost(
                length, a=node.name, b=self._reader.name
            )
        return est

    def _observe_health(self, node: DataNode, latency: float) -> None:
        health = self._dfs.health
        if health is not None:
            health.observe(
                node.name,
                latency,
                now=self._reader.clock.now,
                counters=self._reader.counters,
            )

    def _observe_read(self, node: DataNode, cost: float, length: int) -> None:
        """Feed the health monitor a served read's latency: its disk cost,
        plus the transfer when the replica is not on the reader's machine."""
        if self._dfs.health is None:
            return
        if node.machine is not self._reader:
            cost += self._dfs.network.transfer_cost(
                length, a=node.name, b=self._reader.name
            )
        self._observe_health(node, cost)

    def _failover_read(
        self, block: BlockInfo, offset: int, length: int, verify: bool
    ) -> tuple[bytes, float, DataNode]:
        """Read a range, failing over across replicas.

        Candidates are tried in locality order (local, rack, any), with
        replicas behind an open circuit breaker demoted to last when the
        gray-resilience layer is on.  A candidate that turns out dead,
        holds a short/stale copy, or — for a ``verify`` read — fails
        checksum verification of the chunks this range touches is pruned
        from the block's locations (a corrupt one counted and queued for
        repair) and the next replica is tried; failed attempts charge
        nothing (liveness comes from heartbeats).

        A candidate that does not hold the block at all is absent, not
        corrupt: it is passed over without a counter, and if nothing
        could serve because the file itself has been deleted since this
        reader was opened (compaction retired the segment under a
        follower's cached metadata) the read raises
        :class:`FileNotFoundInDFS` with the block's locations and the
        repair queue untouched.

        Under an ambient deadline, a candidate whose estimated cost
        exceeds the remaining budget is skipped (deadline-aware
        failover); if *no* candidate fits, the reader charges only the
        remaining budget and raises :class:`DeadlineExceededError` —
        never the unbounded cost of waiting out a limping replica.

        With hedging enabled, a candidate whose estimate exceeds the
        hedging delay races a backup replica and the cheaper simulated
        completion wins (see :meth:`_hedged_read`).

        Returns:
            ``(payload, disk_seconds, serving_node)``.

        Raises:
            DeadlineExceededError: deadline expired, or no replica can
                serve within the remaining budget.
            FileNotFoundInDFS: the file was deleted under this reader.
            DataNodeDownError: if no live, reachable replica remains.
            ReplicaCorruptError / BlockCorruptionError: if every remaining
                replica is damaged.
        """
        gray = self._dfs.gray
        deadline = current_deadline()
        last_exc: Exception | None = None
        starved = False  # some replica was skipped only for deadline reasons
        candidates = self._replica_candidates(block)
        for i, node in enumerate(candidates):
            if not node.has_block(block.block_id):
                continue
            est = None
            if deadline is not None:
                est = self._serve_estimate(node, length)
                if est > deadline.remaining():
                    starved = True
                    continue
            if verify and not node.verify_replica(block.block_id, offset, length):
                self._dfs._drop_bad_replica(block, node, self._reader, corrupt=True)
                last_exc = ReplicaCorruptError(
                    f"replica of block {block.block_id} on {node.name} "
                    f"failed checksum verification"
                )
                continue
            hedge = None
            if gray is not None and gray.hedge_reads and self._dfs.health is not None:
                if est is None:
                    est = self._serve_estimate(node, length)
                delay = self._dfs.health.hedge_delay()
                if est > delay:
                    hedge = self._pick_hedge(
                        candidates[i + 1 :], block, offset, length, verify
                    )
            if hedge is not None:
                result = self._hedged_read(
                    block, offset, length, node, hedge, est, delay
                )
                if result is not None:
                    return result
                last_exc = DataNodeDownError(
                    f"hedged replicas of block {block.block_id} failed"
                )
                continue
            try:
                payload, cost = node.read_replica(block.block_id, offset, length)
            except (DataNodeDownError, BlockCorruptionError) as exc:
                self._dfs._drop_bad_replica(
                    block, node, self._reader, isinstance(exc, BlockCorruptionError)
                )
                last_exc = exc
                continue
            self._observe_read(node, cost, length)
            return payload, cost, node
        if not self._dfs.namenode.owns(self._meta):
            raise FileNotFoundInDFS(
                f"{self._meta.path} was deleted under an open reader"
            )
        if starved and deadline is not None:
            # Every remaining replica would blow the budget: spend what is
            # left of it (the time a real client burns before timing out)
            # and fail bounded instead of charging the limped read.
            remaining = deadline.remaining()
            if remaining > 0:
                self._reader.clock.advance(remaining)
            self._reader.counters.add(DEADLINES_EXCEEDED)
            raise DeadlineExceededError(
                f"no replica of block {block.block_id} can serve "
                f"{length} bytes within the remaining deadline budget"
            )
        if last_exc is not None:
            raise last_exc
        raise DataNodeDownError(
            f"all replicas of block {block.block_id} are down"
        )

    def _pick_hedge(
        self, backups: list[DataNode], block: BlockInfo, offset: int, length: int,
        verify: bool,
    ) -> DataNode | None:
        """The first viable hedge target among the remaining candidates:
        alive, breaker-allowed, holding the block, and (for a ``verify``
        read) checksum-clean over the range about to be read.
        Verification charges nothing."""
        health = self._dfs.health
        now = self._reader.clock.now
        for node in backups:
            if not node.alive:
                continue
            if health is not None and not health.allow(node.name, now):
                continue
            if not node.has_block(block.block_id):
                continue
            if verify and not node.verify_replica(block.block_id, offset, length):
                continue
            return node
        return None

    def _hedged_read(
        self,
        block: BlockInfo,
        offset: int,
        length: int,
        primary: DataNode,
        hedge: DataNode,
        primary_est: float,
        delay: float,
    ) -> tuple[bytes, float, DataNode] | None:
        """Race ``primary`` against ``hedge`` and take the cheaper
        simulated completion.

        The hedge request fires ``delay`` seconds after the primary, so
        its effective completion is ``delay + its estimate``; the winner
        is whichever finishes first.  The winner's replica read is
        actually performed (charging its machine's disk as usual); the
        loser is cancelled, charged only up to the winner's completion —
        and its machine's disk head is displaced, since the abandoned
        read really moved it.  The loser's *estimated* latency still
        feeds the health monitor, so breakers trip on replicas that
        hedging routes around.

        Returns ``(payload, disk_seconds, winner)`` shaped exactly like a
        plain failover read, or None when the winner's read failed.
        """
        reader = self._reader
        hedge_est = delay + self._serve_estimate(hedge, length)
        if primary_est <= hedge_est:
            winner, loser = primary, hedge
            winner_completion = primary_est
            loser_busy = max(0.0, winner_completion - delay)
        else:
            winner, loser = hedge, primary
            winner_completion = hedge_est
            loser_busy = winner_completion
        reader.counters.add(DFS_HEDGE_FIRED)
        with span(SPAN_DFS_HEDGE_WINNER, reader, node=winner.name):
            try:
                payload, cost = winner.read_replica(block.block_id, offset, length)
            except (DataNodeDownError, BlockCorruptionError) as exc:
                self._dfs._drop_bad_replica(
                    block, winner, reader, isinstance(exc, BlockCorruptionError)
                )
                return None
            if winner is hedge:
                reader.counters.add(DFS_HEDGE_WINS)
                # The reader sat out the hedging delay before the backup
                # request even fired; the backup's own cost is charged by the
                # caller exactly like any served read.
                reader.clock.advance(delay)
            else:
                reader.counters.add(DFS_HEDGE_LOSSES)
        # Cancel the loser: its machine was busy only until the winner
        # completed.  When the loser shares the reader's machine the busy
        # time overlaps the reader's own wait on the same clock, so only
        # the displaced disk head is modelled, not a double charge.  The
        # loser span is ``background``: parallel work that never extends
        # the operation's latency, but closed all the same so chaos runs
        # leave no orphan spans.
        with span(SPAN_DFS_HEDGE_LOSER, loser.machine, background=True,
                  node=loser.name):
            if loser.machine is not reader:
                loser.machine.clock.advance(min(loser.read_cost(length), loser_busy))
            loser.machine.disk.invalidate_head()
        self._observe_health(loser, self._serve_estimate(loser, length))
        self._observe_read(winner, cost, length)
        return payload, cost, winner

    def _replica_candidates(self, block: BlockInfo) -> list[DataNode]:
        """Live, reachable replicas in the order reads should try them:
        the reader's local datanode, then same-rack, then the rest (the
        seed's ``_pick_replica`` preference, extended to a full ordering
        for failover).

        With the gray-resilience layer on, replicas whose circuit
        breaker is open are demoted behind every allowed replica: a
        limping-but-alive node stops being anyone's first choice while
        staying available as the read of last resort.
        """
        reader = self._reader
        datanodes = self._dfs.datanodes
        reachable = self._dfs.network.reachable
        local, rack, rest = [], [], []
        for name in block.locations:
            node = datanodes[name]
            machine = node.machine
            if not machine.alive or not reachable(reader.name, name):
                continue
            if machine is reader:
                local.append(node)
            elif machine.rack == reader.rack:
                rack.append(node)
            else:
                rest.append(node)
        ordered = local + rack + rest
        health = self._dfs.health
        if health is not None and len(ordered) > 1:
            now = self._reader.clock.now
            blocked = [n for n in ordered if not health.allow(n.name, now)]
            if blocked and len(blocked) < len(ordered):
                self._reader.counters.add(BREAKER_SKIPS, len(blocked))
                ordered = [n for n in ordered if n not in blocked] + blocked
        return ordered
