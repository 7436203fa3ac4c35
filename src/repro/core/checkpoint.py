"""Checkpointing (§3.8): persist in-memory indexes for fast recovery.

A checkpoint writes two things to the DFS: (1) every in-memory index
flushed to an index file, and (2) a *checkpoint block* recording the
current position in the log and the LSN of the latest write reflected in
the persisted indexes.  Recovery reloads the index files and redoes only
the log suffix after that position.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.tablet_server import TabletServer
from repro.dfs.filesystem import DFS
from repro.index.persist import load_index_file, write_index_file
from repro.sim.failure import CP_CHECKPOINT_MID, crash_point
from repro.wal.record import LogPointer


@dataclass(frozen=True)
class CheckpointBlock:
    """Contents of the checkpoint block.

    Attributes:
        lsn: LSN of the latest write whose effect is in the index files.
        position: log position recovery resumes scanning from.
        index_files: (tablet, group) -> DFS path of the index file.
    """

    lsn: int
    position: LogPointer
    index_files: dict[str, str]  # "tablet|group" -> path

    def to_bytes(self) -> bytes:
        return json.dumps(
            {
                "lsn": self.lsn,
                "file_no": self.position.file_no,
                "offset": self.position.offset,
                "index_files": self.index_files,
            }
        ).encode()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "CheckpointBlock":
        doc = json.loads(payload.decode())
        return cls(
            lsn=doc["lsn"],
            position=LogPointer(doc["file_no"], doc["offset"], 0),
            index_files=dict(doc["index_files"]),
        )


class CheckpointManager:
    """Writes and reloads checkpoints for one tablet server."""

    def __init__(self, dfs: DFS, server: TabletServer) -> None:
        self._dfs = dfs
        self._server = server
        self._root = f"/logbase/{server.name}/ckpt"
        server.set_checkpoint_hook(lambda _srv: self.write_checkpoint())

    def _block_path(self) -> str:
        return f"{self._root}/checkpoint.block"

    def write_checkpoint(self) -> CheckpointBlock:
        """Flush every index to the DFS and persist the checkpoint block.

        Returns the block that was written.
        """
        server = self._server
        index_files: dict[str, str] = {}
        position = server.log.end_pointer()
        lsn = server.log.next_lsn - 1
        for (tablet_id, group), index in server.indexes().items():
            # A crash here leaves some index files written but no new
            # checkpoint block — the previous checkpoint stays consistent
            # and recovery redoes from it (the block is the commit point).
            crash_point(CP_CHECKPOINT_MID, server=server.name)
            path = f"{self._root}/{tablet_id}.{group}.idx"
            write_index_file(self._dfs, path, server.machine, index)
            index_files[f"{tablet_id}|{group}"] = path
        block = CheckpointBlock(lsn=lsn, position=position, index_files=index_files)
        self._dfs.install(self._block_path(), block.to_bytes(), server.machine)
        return block

    def has_checkpoint(self) -> bool:
        """Whether a checkpoint block exists for this server."""
        return self._dfs.exists(self._block_path())

    def read_block(self) -> CheckpointBlock:
        """Read the checkpoint block (without loading index files)."""
        reader = self._dfs.open(self._block_path(), self._server.machine)
        return CheckpointBlock.from_bytes(reader.read_all(verified=True))

    def load_checkpoint(
        self, block: CheckpointBlock | None = None, tablet_id: str | None = None
    ) -> CheckpointBlock:
        """Reload the persisted index files into the server's indexes and
        restore the LSN cursor; returns the block (read here if not given).

        With ``tablet_id`` only that tablet's files load and the cursor is
        left alone: fast recovery staggers the reloads per tablet, so each
        pays only its own DFS reads before it can serve, and restores the
        cursor once for the whole pass.  The server must already have its
        tablets assigned (the master re-assigns them on restart) so the
        index shells exist.
        """
        if block is None:
            block = self.read_block()
        server = self._server
        for slot, path in block.index_files.items():
            tablet_id_str, group = slot.split("|")
            if tablet_id is not None and tablet_id_str != tablet_id:
                continue
            tablet = server.tablets.get(tablet_id_str)
            if tablet is None:
                continue  # tablet moved elsewhere; its new owner loads it
            index = server._ensure_index(tablet.tablet_id, group)
            load_index_file(self._dfs, path, server.machine, index)
        if tablet_id is None:
            server.log.set_next_lsn(block.lsn + 1)
        return block
