"""Checkpointing (§3.8): what recovery loads instead of rescanning the log.

A checkpoint is a *block* and one *tail file* per (tablet, group).  The
entries that point into sorted runs are persisted already, in the index
files compaction writes beside the runs (:mod:`repro.index.persist`), so
the block names the live runs, the log position redo resumes from and
the LSN the files reflect, and a tail file holds the rest: the entries
that point into unsorted segments and, for a scope with runs, the delete
marks applied since (:meth:`TabletServer.mark_deleted`).  Every file
loads through one loader (:func:`repro.wal.replay.redo_rows`).

The block is the commit point: tail files alternate between two names,
and the log keeps every file it retires until the next block is in
(:meth:`LogRepository.hold`), so a crash before the swap leaves the live
checkpoint whole.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.core.tablet_server import TabletServer
from repro.dfs.filesystem import DFS
from repro.index.interface import Row
from repro.index.persist import encode_index_file, read_index_file
from repro.sim.failure import CP_CHECKPOINT_MID, crash_point
from repro.wal.record import LogPointer
from repro.wal.replay import Tombstones, redo_rows


@dataclass(frozen=True)
class CheckpointBlock:
    """Contents of the checkpoint block.

    Attributes:
        lsn: LSN of the latest write whose effect the files reflect.
        position: log position recovery resumes scanning from.
        index_files: (tablet, group) -> DFS path of its tail file.
        runs: (table, group) -> file numbers of its live sorted runs.
    """

    lsn: int
    position: LogPointer
    index_files: dict[str, str]  # "tablet|group" -> path
    runs: dict[str, list[int]] = field(default_factory=dict)  # "table|group" -> runs

    def to_bytes(self) -> bytes:
        doc: dict = {
            "lsn": self.lsn,
            "file_no": self.position.file_no,
            "offset": self.position.offset,
            "index_files": self.index_files,
        }
        if self.runs:
            doc["runs"] = self.runs
        return json.dumps(doc).encode()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "CheckpointBlock":
        doc = json.loads(payload.decode())
        return cls(
            lsn=doc["lsn"],
            position=LogPointer(doc["file_no"], doc["offset"], 0),
            index_files=dict(doc["index_files"]),
            runs=doc.get("runs", {}),
        )


def _within(rows: list[Row], key_range) -> list[Row]:
    """The rows of a key-ordered list that ``key_range`` covers."""
    end = None if key_range.end is None else bisect_left(rows, (key_range.end,))
    return rows[bisect_left(rows, (key_range.start,)) : end]


class CheckpointManager:
    """Writes and reloads checkpoints for one tablet server."""

    def __init__(self, dfs: DFS, server: TabletServer) -> None:
        self._dfs = dfs
        self._server = server
        self._root = f"/logbase/{server.name}/ckpt"
        self._live: dict[str, str] | None = None  # the live block's tail files
        server.set_checkpoint_hook(lambda _srv: self.write_checkpoint())

    def _block_path(self) -> str:
        return f"{self._root}/checkpoint.block"

    def write_checkpoint(self) -> CheckpointBlock:
        """Persist the tail files, then the block; returns the block."""
        server, log = self._server, self._server.log
        if self._live is None:
            self._live = self.read_block().index_files if self.has_checkpoint() else {}
        runs: dict[str, list[int]] = {}
        for file_no in log.segments():
            if log.is_sorted_segment(file_no):
                runs.setdefault("|".join(log.segment_scope(file_no)), []).append(file_no)
        in_runs = {file_no for file_nos in runs.values() for file_no in file_nos}
        index_files: dict[str, str] = {}
        for (tablet_id, group), index in server.indexes().items():
            # A crash here leaves tail files the live block does not name.
            crash_point(CP_CHECKPOINT_MID, server=server.name)
            slot = f"{tablet_id}|{group}"
            path = f"{self._root}/{tablet_id}.{group}.idx"
            if self._live.get(slot) == path:
                path = f"{self._root}/{tablet_id}.{group}.alt.idx"
            entries = index.rows(skip=in_runs)
            tablet, marks = server.tablets.get(tablet_id), []
            if tablet is not None and f"{tablet.table}|{group}" in runs:
                # Marks filter run versions only: a scope without runs
                # writes none, and its tail file is its whole index.
                held = server.delete_marks.get((tablet.table, group), {})
                marks = [held[key] for key in sorted(held) if tablet.covers(key)]
            self._dfs.install(path, encode_index_file(entries, marks), server.machine)
            index_files[slot] = path
        block = CheckpointBlock(log.next_lsn - 1, log.end_pointer(), index_files, runs)
        self._dfs.install(self._block_path(), block.to_bytes(), server.machine)
        for path in set(self._live.values()) - set(index_files.values()):
            if self._dfs.exists(path):
                self._dfs.delete(path)
        self._live = index_files
        log.hold()
        return block

    def has_checkpoint(self) -> bool:
        """Whether a checkpoint block exists for this server."""
        return self._dfs.exists(self._block_path())

    def read_block(self) -> CheckpointBlock:
        """Read the checkpoint block (without the files it names)."""
        reader = self._dfs.open(self._block_path(), self._server.machine)
        return CheckpointBlock.from_bytes(reader.read_all(verified=True))

    def resume(self) -> CheckpointBlock:
        """Read the block a recovery resumes from and make it the live one
        again: the log holds retired files for it (:meth:`LogRepository.hold`)
        and lists its runs as runs, which a merge's map swap may have
        dropped before a newer block was installed
        (:meth:`LogRepository.admit_run`)."""
        block = self.read_block()
        for scope, file_nos in block.runs.items():
            for file_no in file_nos:
                self._server.log.admit_run(file_no, tuple(scope.split("|")))
        self._server.log.hold()
        self._live = block.index_files
        return block

    def load_checkpoint(
        self,
        block: CheckpointBlock | None = None,
        tablet_id: str | None = None,
        decoded: dict | None = None,
        tombstones: Tombstones | None = None,
    ) -> CheckpointBlock:
        """Load the checkpoint into the server's indexes and restore the
        LSN cursor; returns the block (resumed here if not given).

        Each (tablet, group) takes the rows of its scope's runs that the
        tablet covers, then its tail file, whose marks the server holds
        again.  With ``tablet_id`` only that tablet loads and the cursor
        is left alone: fast recovery staggers the loads per tablet, and
        restores the cursor once for the whole pass, handing every call
        one ``decoded`` map so each run index is read once.  The marks
        land in the redo cursor's ``tombstones``.  The server must already
        have its tablets assigned so the index shells exist.
        """
        if block is None:
            block = self.resume()
        server, decoded = self._server, {} if decoded is None else decoded
        tombstones = {} if tombstones is None else tombstones

        def run_rows(file_no: int) -> tuple[list[Row], list[Row]]:
            if file_no not in decoded:
                decoded[file_no] = server.log.read_run_index(file_no)
            return decoded[file_no]

        for slot, path in block.index_files.items():
            tablet_key, group = slot.split("|")
            tablet = server.tablets.get(tablet_key)
            if tablet is None or tablet_id not in (None, tablet_key):
                continue  # not this pass's, or owned elsewhere now
            index = server._ensure_index(tablet.tablet_id, group)
            scope = (tablet.table, group)
            files = [run_rows(n) for n in block.runs.get("|".join(scope), [])]
            for rows, marks in [*files, read_index_file(self._dfs, path, server.machine)]:
                rows, marks = _within(rows, tablet.key_range), _within(marks, tablet.key_range)
                redo_rows(scope, marks + rows, len(marks), lambda *_: index, tombstones)
            for row in marks:  # the tail file's
                server.mark_deleted(scope, row)
        if tablet_id is None:
            server.log.set_next_lsn(block.lsn + 1)
        return block
