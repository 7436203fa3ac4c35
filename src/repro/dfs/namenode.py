"""Namenode: the DFS namespace and rack-aware block placement.

Placement follows the HDFS default policy the paper's cluster used:

1. first replica on the writer's local datanode (if alive),
2. second replica on a datanode in a *different* rack,
3. third replica on a different datanode in the *same* rack as the second,
4. further replicas spread over remaining datanodes.
"""

from __future__ import annotations

import itertools

from repro.dfs.block import BlockInfo, FileMeta
from repro.errors import (
    FileAlreadyExists,
    FileNotFoundInDFS,
    ReplicationError,
)


class NameNode:
    """Namespace and block-location manager for the simulated DFS."""

    def __init__(self, replication: int = 3, *, allow_degraded: bool = False) -> None:
        if replication < 1:
            raise ValueError("replication factor must be >= 1")
        self.replication = replication
        # Degraded allocation: when fewer datanodes are live than the
        # replication factor, place new blocks on the survivors and queue
        # them for repair instead of refusing the write (availability
        # during failures; off by default to keep the seed's strictness).
        self.allow_degraded = allow_degraded
        self._files: dict[str, FileMeta] = {}
        self._next_block_id = itertools.count(1)
        self._placement_rotor = itertools.count(0)
        # datanode name -> rack, registered by the DFS facade
        self._racks: dict[str, str] = {}
        # Block ids reported under-replicated by the append pipeline or the
        # read path; drained by heartbeat-driven re-replication.
        self.under_replicated: set[int] = set()

    # -- datanode membership -------------------------------------------------

    def register_datanode(self, name: str, rack: str) -> None:
        """Record a datanode and its rack for placement decisions."""
        self._racks[name] = rack

    def rack_of(self, name: str) -> str | None:
        """Rack of a registered datanode, or None if unknown."""
        return self._racks.get(name)

    def report_under_replicated(self, block_id: int) -> None:
        """Record that ``block_id`` has lost a replica (pipeline or read
        path detected a dead/corrupt copy); the heartbeat pass repairs it."""
        self.under_replicated.add(block_id)

    def clear_under_replicated(self, block_id: int) -> None:
        """Drop ``block_id`` from the repair queue (replica count restored
        or the block's file was deleted)."""
        self.under_replicated.discard(block_id)

    # -- namespace -----------------------------------------------------------

    def create_file(self, path: str) -> FileMeta:
        """Create an empty file entry.

        Raises:
            FileAlreadyExists: if ``path`` is already in the namespace.
        """
        if path in self._files:
            raise FileAlreadyExists(path)
        meta = FileMeta(path=path)
        self._files[path] = meta
        return meta

    def get_file(self, path: str) -> FileMeta:
        """Look up file metadata.

        Raises:
            FileNotFoundInDFS: if ``path`` does not exist.
        """
        meta = self._files.get(path)
        if meta is None:
            raise FileNotFoundInDFS(path)
        return meta

    def exists(self, path: str) -> bool:
        """Whether ``path`` is in the namespace."""
        return path in self._files

    def owns(self, meta: FileMeta) -> bool:
        """Whether ``meta`` is still the namespace's entry for its path —
        False once the file a reader opened was deleted, even if the path
        has since been created again."""
        return self._files.get(meta.path) is meta

    def delete_file(self, path: str) -> FileMeta:
        """Remove ``path`` and return its metadata (caller drops replicas)."""
        meta = self.get_file(path)
        del self._files[path]
        return meta

    def rename(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` to ``dst``."""
        if dst in self._files:
            raise FileAlreadyExists(dst)
        meta = self.get_file(src)
        del self._files[src]
        meta.path = dst
        self._files[dst] = meta

    def list_files(self, prefix: str = "") -> list[str]:
        """All paths starting with ``prefix``, sorted."""
        return sorted(path for path in self._files if path.startswith(prefix))

    # -- block allocation ----------------------------------------------------

    def allocate_block(self, path: str, writer: str, alive: set[str]) -> BlockInfo:
        """Allocate a new block for ``path`` with rack-aware placement.

        Args:
            path: target file.
            writer: machine name of the writing client.
            alive: names of currently live datanodes.

        Raises:
            ReplicationError: if fewer live datanodes exist than the
                replication factor (unless degraded allocation is on).
        """
        meta = self.get_file(path)
        locations = self._place(writer, alive)
        block = BlockInfo(block_id=next(self._next_block_id), locations=locations)
        meta.blocks.append(block)
        if len(locations) < self.replication:
            self.report_under_replicated(block.block_id)
        return block

    def _place(self, writer: str, alive: set[str]) -> list[str]:
        candidates = [name for name in self._racks if name in alive]
        want = self.replication
        if len(candidates) < want:
            if not self.allow_degraded or not candidates:
                raise ReplicationError(
                    f"need {self.replication} live datanodes, have {len(candidates)}"
                )
            want = len(candidates)
        # Deterministic spread: rotate remote-replica choice per block so
        # no single node absorbs every second replica (HDFS randomizes;
        # a fixed choice would create the hotspot randomization avoids).
        salt = next(self._placement_rotor)
        chosen: list[str] = []
        # 1. local replica
        if writer in alive and writer in self._racks:
            chosen.append(writer)
        else:
            chosen.append(candidates[salt % len(candidates)])
        first_rack = self._racks[chosen[0]]
        # 2. different rack if one exists
        remote = [n for n in candidates if n not in chosen and self._racks[n] != first_rack]
        if remote and len(chosen) < want:
            chosen.append(remote[salt % len(remote)])
        # 3. same rack as the second replica, different node
        if len(chosen) >= 2 and len(chosen) < want:
            second_rack = self._racks[chosen[1]]
            peers = [
                n
                for n in candidates
                if n not in chosen and self._racks[n] == second_rack
            ]
            if peers:
                chosen.append(peers[salt % len(peers)])
        # 4. fill remaining slots round-robin
        for offset in range(len(candidates)):
            if len(chosen) == want:
                break
            name = candidates[(salt + offset) % len(candidates)]
            if name not in chosen:
                chosen.append(name)
        return chosen
