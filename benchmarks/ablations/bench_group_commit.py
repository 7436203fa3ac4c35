"""Ablation — group-commit batch size (§3.7.2).

"LogBase further embeds an optimization technique that processes commit
and log records in batches ... to reduce the log persistence cost."
Sweeping the batch size shows the per-record replication round trip
amortizing away.
"""

import pathlib

from repro.bench.report import format_table
from repro.dfs.filesystem import DFS
from repro.sim.machine import Machine
from repro.wal.record import LogRecord, RecordType
from repro.wal.repository import LogRepository

BATCH_SIZES = [1, 4, 16, 64]
N_RECORDS = 2048


def _run(batch_size: int) -> float:
    machines = [Machine(f"n{i}", rack=f"rack-{i % 2}") for i in range(3)]
    dfs = DFS(machines, replication=3)
    repo = LogRepository(dfs, machines[0], "/log")
    records = [
        LogRecord(
            record_type=RecordType.WRITE,
            table="t",
            tablet="t#0",
            key=f"k{i:06d}".encode(),
            group="g",
            timestamp=i + 1,
            value=b"x" * 1000,
        )
        for i in range(N_RECORDS)
    ]
    for start in range(0, N_RECORDS, batch_size):
        repo.append_batch(records[start : start + batch_size])
    return machines[0].clock.now


def run_experiment() -> dict[int, float]:
    return {size: _run(size) for size in BATCH_SIZES}


def test_group_commit_batch_size(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [[size, seconds, N_RECORDS / seconds] for size, seconds in results.items()]
    table = format_table(
        "Ablation: group-commit batch size (2048 x 1KB records)",
        ["batch", "sim sec", "records/sec"],
        rows,
    )
    print("\n" + table)
    out = pathlib.Path(__file__).parents[1] / "results"
    out.mkdir(exist_ok=True)
    (out / "ablation_group_commit.txt").write_text(table + "\n")
    # Larger batches strictly help, with diminishing returns.
    assert results[4] < results[1]
    assert results[16] < results[4]
    assert results[64] <= results[16]
    # The big jump is the first amortization step.
    assert (results[1] - results[4]) > (results[16] - results[64])
