"""Host cost of one incremental compaction round.

Runs a uniform-update churn workload on a single-server 3-node LogBase
(load a keyspace, then ``rounds`` rounds of random overwrites, each
followed by ``compact_all()``) with one follower on the second node
tailing the owner after every round, and prints per round the inclusive
host ms of ``TabletServer.compact``, the plan job
(``IncrementalCompactionJob.run``), the owner's index ``repoint``, the
checkpoint written after the round and the disk bytes it wrote (every
replica), and the follower's run re-home (reading the run index and
re-pointing its replica).  Host times and bytes are printed, never gated;
the script fails only if a round raises.

The churn comparison against a whole-log rewrite per round, and the
exact charges of one pinned round, are tier-1 tests
(``tests/integration/test_compaction_churn.py``); the work budget's
``compaction`` and ``rehome`` slices pin a round's exact work.

Run ``python benchmarks/bench_compaction.py [--smoke]``.  A costed
function the tree lacks is skipped, so ``PYTHONPATH`` picks the ``src/``
it measures.
"""

from __future__ import annotations

import argparse
import random
import time
from contextlib import contextmanager

import repro.core.follower
import repro.wal.replay
from conftest import RECORD_SIZE
from repro.bench.adapters import LogBaseAdapter, make_logbase
from repro.config import LogBaseConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.follower import LogTailer
from repro.core.tablet_server import TabletServer
from repro.index.blink import BLinkTreeIndex
from repro.wal.compaction import IncrementalCompactionJob

DEFAULT_RECORDS = 1200
DEFAULT_ROUNDS = 10
SMOKE_RECORDS = 400
SMOKE_ROUNDS = 8


def build_adapter(records: int) -> LogBaseAdapter:
    """A single-server 3-node LogBase with small segments so each churn
    round spills several unsorted tail segments (the steady-state
    regime)."""
    total = max(records * RECORD_SIZE, 64 * 1024)
    config = LogBaseConfig(
        segment_size=max(total // 8, 16 * 1024), heap_bytes=4 * total
    )
    return make_logbase(
        3,
        records_per_node=records,
        record_size=RECORD_SIZE,
        config=config,
        single_server=True,
    )


@contextmanager
def host_timers(spent: dict[str, float]):
    """Within the block, add each costed function's inclusive host
    seconds to ``spent`` under its column name."""
    targets = [
        ("compact", TabletServer, "compact"),
        ("plan job", IncrementalCompactionJob, "run"),
        ("repoint", BLinkTreeIndex, "repoint"),
        ("checkpoint", CheckpointManager, "write_checkpoint"),
        ("follower re-home", getattr(repro.wal.replay, "LogCursor", None), "_read_run"),
        # The same step on older trees.
        ("follower re-home", LogTailer, "_run_entries"),
        ("follower re-home", LogTailer, "_rehome"),
        ("follower re-home", repro.core.follower, "read_index_file"),
        ("follower re-home", LogTailer, "_adopt_rows"),
    ]
    saved = []
    for column, owner, name in targets:
        original = owner and vars(owner).get(name)
        if original is None:  # a tree without this step
            continue

        def timed(*args, _original=original, _column=column, **kwargs):
            began = time.perf_counter()
            try:
                return _original(*args, **kwargs)
            finally:
                spent[_column] = spent.get(_column, 0.0) + time.perf_counter() - began

        saved.append((owner, name, original))
        setattr(owner, name, timed)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def host_cost_rounds(records: int, rounds: int, *, seed: int = 11) -> list[dict]:
    """The incremental arm's churn with a follower on the second node
    tailing the owner after every round; per round, the host ms of each
    ``host_timers`` column."""
    adapter = build_adapter(records)
    owner, host = adapter.cluster.servers[:2]
    for tablet in owner.tablets.values():
        host.replicas.follow(tablet, owner.name, 0)
    tailer = host.replicas.tailers[owner.name]
    rng = random.Random(seed)
    keys = [f"user{i:08d}".encode() for i in range(records)]
    for key in keys:
        adapter.put(0, key, rng.randbytes(RECORD_SIZE))
    tailer.tail(10 * records)
    per_round = []
    for _ in range(rounds):
        for _ in range(records // 2):
            adapter.put(0, rng.choice(keys), rng.randbytes(RECORD_SIZE))
        spent: dict[str, float] = {}
        written = [0]
        with checkpoint_bytes(adapter.cluster, written), host_timers(spent):
            adapter.compact_all()
            tailer.tail(10 * records)
        costs = {column: 1e3 * seconds for column, seconds in spent.items()}
        per_round.append({**costs, "ckpt bytes": written[0]})
    return per_round


@contextmanager
def checkpoint_bytes(cluster, written: list[int]):
    """Within the block, add the disk bytes each checkpoint writes, on
    every replica, to ``written[0]``."""
    write = CheckpointManager.write_checkpoint

    def counted(manager):
        before = cluster.total_counters().get("disk.bytes_written", 0)
        try:
            return write(manager)
        finally:
            written[0] += cluster.total_counters().get("disk.bytes_written", 0) - before

    CheckpointManager.write_checkpoint = counted
    try:
        yield
    finally:
        CheckpointManager.write_checkpoint = write


def format_round_costs(per_round: list[dict]) -> str:
    columns = ["compact", "plan job", "repoint", "checkpoint", "ckpt bytes", "follower re-home"]
    lines = [
        "Host cost of one incremental round (ms, inclusive; compact holds the "
        "plan job, repoint and checkpoint; ckpt bytes are disk bytes)",
        f"{'round':>5} " + " ".join(f"{column:>16}" for column in columns),
    ]
    for number, spent in enumerate(per_round, 1):
        lines.append(
            f"{number:>5} "
            + " ".join(
                f"{spent.get(column, 0):>16.0f}" if column == "ckpt bytes"
                else f"{spent.get(column, 0.0):>16.2f}"
                for column in columns
            )
        )
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument("--records", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args()
    records = (
        args.records
        if args.records is not None
        else (SMOKE_RECORDS if args.smoke else DEFAULT_RECORDS)
    )
    rounds = (
        args.rounds
        if args.rounds is not None
        else (SMOKE_ROUNDS if args.smoke else DEFAULT_ROUNDS)
    )
    if records < 1 or rounds < 1:
        parser.error("--records and --rounds must be >= 1")
    print(format_round_costs(host_cost_rounds(records, rounds)))


if __name__ == "__main__":
    main()
