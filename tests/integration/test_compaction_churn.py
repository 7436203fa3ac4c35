"""Steady-state compaction churn: the size-tiered planner vs a whole-log
rewrite per round (§3.6.5).

One uniform-update workload runs twice on a single-server 3-node LogBase:
load 400 records, then 8 rounds of 200 random overwrites, each followed
by a compaction round — once monolithic (every round rewrites the whole
log, sorted runs included, as one tail plan: the reference arm) and once
through ``compact_all()`` (the unsorted tail always compacts; sorted runs
merge only when a size tier fills).  The planner must write far less,
keep rewrite amplification below the reference, batch its run output
into 64 KiB appends, and leave post-compaction range scans as clustered
as the whole-log rewrite.  Round 3 of the incremental arm is pinned
exactly, so a change meant to cost host time only fails here if it moves
a simulated number.  Over ten rounds of the same churn, a checkpoint
costs what changed since the runs were written, not the history.
"""

import random

import pytest

from repro.bench.adapters import LogBaseAdapter, make_logbase
from repro.config import LogBaseConfig
from repro.core.checkpoint import CheckpointManager
from repro.sim.failure import CP_DFS_APPEND, FaultPlan, fault_plan
from repro.sim.metrics import COMPACTION_BYTES_READ, COMPACTION_BYTES_WRITTEN, LOG_INGEST_BYTES
from repro.wal.compaction import IncrementalCompactionJob
from repro.wal.planner import CompactionPlan

RECORDS = 400
ROUNDS = 8
RECORD_SIZE = 1000
SCANS = 16
RANGE_SIZE = 80  # tuples returned per scan, the Fig. 10 mid-range point
# One append per 64 KiB chunk of a run is 16 per MiB, plus each run's last
# partial chunk; one append per 1 KB record was ~1,000.
MAX_ROUND_TRIPS_PER_MIB = 20.0
# Round 3 of the incremental arm, and what its compaction must charge.
PROBE_ROUND = 3
PINNED_ROUND = {
    "sim_seconds": 0.07929920599999973,
    "compaction_bytes_read": 210800,
    "compaction_bytes_written": 206000,
    "disk_bytes_written": 1263783,
}


def build_adapter() -> LogBaseAdapter:
    """Small segments, so each churn round spills several unsorted tail
    segments (the steady-state regime)."""
    total = RECORDS * RECORD_SIZE
    config = LogBaseConfig(segment_size=max(total // 8, 16 * 1024), heap_bytes=4 * total)
    return make_logbase(
        3, records_per_node=RECORDS, record_size=RECORD_SIZE, config=config, single_server=True
    )


def compact_monolithic(adapter: LogBaseAdapter) -> None:
    """One whole-log tail plan per server: what ``TabletServer.compact``
    does, minus the planner."""
    for server in adapter.cluster.servers:
        inputs = tuple(server.log.segments())
        server.log.roll()
        plan = CompactionPlan("tail", inputs, sum(server.log.segment_bytes(f) for f in inputs))
        server._patch_indexes(IncrementalCompactionJob(server.log, plan).run())
        adapter.cluster.checkpoints[server.name].write_checkpoint()


def counting_run_appends(adapter: LogBaseAdapter, tally: list[int]):
    """Context in which every DFS append round trip into a sorted run —
    compaction's output, not its metadata swaps or the checkpoint that
    follows an install — adds one to ``tally[0]``."""
    dfs = adapter.cluster.dfs

    def on_append(ctx: dict) -> None:
        for path in dfs.list_files("/logbase/"):
            if "/sorted-" in path:
                blocks = dfs.namenode.get_file(path).blocks
                if blocks and blocks[-1].block_id == ctx["block"]:
                    tally[0] += 1
                    return

    plan = FaultPlan()
    plan.add(CP_DFS_APPEND, on_append, repeat=True)
    return fault_plan(plan)


def churn(adapter: LogBaseAdapter, rounds: int, after_round) -> list[bytes]:
    """Load ``RECORDS`` keys, then ``rounds`` times overwrite half as many
    random ones and call ``after_round()``; returns the keys."""
    rng = random.Random(11)
    keys = [f"user{i:08d}".encode() for i in range(RECORDS)]
    for key in keys:
        adapter.put(0, key, rng.randbytes(RECORD_SIZE))
    for _ in range(rounds):
        for _ in range(RECORDS // 2):
            adapter.put(0, rng.choice(keys), rng.randbytes(RECORD_SIZE))
        after_round()
    return keys


def run_arm(compact) -> dict:
    """Load, churn ``ROUNDS`` rounds each followed by ``compact(adapter)``,
    then run cold range scans; per-round cumulative compaction I/O, the
    totals, and the scans' rows and simulated seconds."""
    adapter = build_adapter()
    rounds, run_appends = [], [0]
    clocks = [machine.clock for machine in adapter.cluster.machines]

    def compact_round() -> None:
        began = sum(clock.now for clock in clocks)
        with counting_run_appends(adapter, run_appends):
            compact(adapter)
        counters = adapter.cluster.total_counters()
        rounds.append(
            {
                "compaction_bytes_written": counters.get(COMPACTION_BYTES_WRITTEN, 0.0),
                "compaction_bytes_read": counters.get(COMPACTION_BYTES_READ, 0.0),
                "disk_bytes_written": counters.get("disk.bytes_written", 0.0),
                # the round's compaction, summed over every machine's clock
                "sim_seconds": sum(clock.now for clock in clocks) - began,
            }
        )

    keys = churn(adapter, ROUNDS, compact_round)
    written = rounds[-1]["compaction_bytes_written"]
    ingested = adapter.cluster.total_counters()[LOG_INGEST_BYTES]
    scan_rng = random.Random(5)
    adapter.drop_caches()
    adapter.reset_clocks()
    rows, scan_seconds = 0, 0.0
    for _ in range(SCANS):
        start = scan_rng.randrange(len(keys) - RANGE_SIZE)
        returned, seconds = adapter.range_scan(0, keys[start], keys[start + RANGE_SIZE])
        rows += returned
        scan_seconds += seconds
    return {
        "rounds": rounds,
        "written": written,
        "ingested": ingested,
        "amplification": written / ingested,
        "round_trips_per_mib": run_appends[0] / (written / 2**20),
        "scan_rows": rows,
        "scan_seconds": scan_seconds,
    }


@pytest.fixture(scope="module")
def arms() -> dict[str, dict]:
    return {
        "monolithic": run_arm(compact_monolithic),
        "incremental": run_arm(LogBaseAdapter.compact_all),
    }


def test_checkpoint_bytes_do_not_grow_with_history(monkeypatch):
    """Checkpoint bytes per checkpoint in round 10 of the churn are within
    1.2x of round 1's: a checkpoint names the runs, whose index files are
    on the DFS already, and writes only what points past them.  A
    checkpoint that re-encoded whole indexes wrote 4.0x by round 10."""
    adapter = build_adapter()
    written = [0, 0]  # bytes, checkpoints in the current round
    write = CheckpointManager.write_checkpoint
    disk_bytes = lambda: adapter.cluster.total_counters().get("disk.bytes_written", 0)

    def counted(manager):
        before = disk_bytes()
        block = write(manager)
        written[0] += disk_bytes() - before
        written[1] += 1
        return block

    monkeypatch.setattr(CheckpointManager, "write_checkpoint", counted)
    per_checkpoint = []

    def compact_round() -> None:
        written[:] = [0, 0]
        adapter.compact_all()
        per_checkpoint.append(written[0] / written[1])

    churn(adapter, 10, compact_round)
    assert per_checkpoint[-1] <= 1.2 * per_checkpoint[0], per_checkpoint


def test_planner_writes_at_least_40pct_less(arms):
    mono, inc = arms["monolithic"], arms["incremental"]
    assert inc["ingested"] == mono["ingested"]
    reduction = 1.0 - inc["written"] / mono["written"]
    assert reduction >= 0.40, f"only {reduction:.0%} fewer compaction bytes written"


def test_rewrite_amplification_strictly_below_monolithic(arms):
    assert arms["incremental"]["amplification"] < arms["monolithic"]["amplification"]


@pytest.mark.parametrize("arm", ["monolithic", "incremental"])
def test_run_output_is_appended_in_chunks(arms, arm):
    assert arms[arm]["round_trips_per_mib"] <= MAX_ROUND_TRIPS_PER_MIB


def test_scans_stay_clustered(arms):
    mono, inc = arms["monolithic"], arms["incremental"]
    assert inc["scan_rows"] == mono["scan_rows"]
    assert inc["scan_seconds"] / mono["scan_seconds"] - 1.0 <= 0.05


def test_probe_round_charges_exactly_the_pinned_work(arms):
    before, probe = arms["incremental"]["rounds"][PROBE_ROUND - 2 : PROBE_ROUND]
    assert probe["sim_seconds"] == pytest.approx(PINNED_ROUND["sim_seconds"], rel=1e-9)
    assert {name: probe[name] - before[name] for name in PINNED_ROUND if name != "sim_seconds"} == {
        name: pinned for name, pinned in PINNED_ROUND.items() if name != "sim_seconds"
    }
