"""Steady-state compaction churn: incremental size-tiered vs monolithic.

Runs an identical uniform-update churn workload twice on a single-server
3-node LogBase: load a keyspace, then repeat ``rounds`` rounds of random
overwrites followed by a compaction round — once monolithic (every round
rewrites the whole log, sorted runs included, as one whole-log tail plan:
the retired seed job, re-expressed here as the reference arm) and once
through ``compact_all()`` (size-tiered planner: the unsorted tail always
compacts, sorted runs only merge when a tier fills).

Reports cumulative compaction bytes read/written per round and the
rewrite amplification (cumulative compaction writes / cumulative ingest),
then measures post-compaction range scans on both arms to show the
read-path clustering is preserved.  Appends a run entry to
``BENCH_compaction.json`` at the repo root so the amplification
trajectory is tracked across commits.

Run directly (``python benchmarks/bench_compaction.py [--smoke]``) or via
pytest, which asserts the acceptance bars: >= 40 % fewer cumulative
compaction bytes written, post-compaction scans within 5 % of the
monolithic arm, and at most 20 DFS append round trips per MiB of
compaction output on either arm.  Both also pin one smoke-size round of
the incremental arm (round ``PROBE_ROUND``: its simulated seconds,
``compaction.bytes_read/written`` and ``disk.bytes_written``), so a change
meant to cost host time only fails here if it moves a simulated number.

``main()`` also prints the host cost of each incremental round, with one
follower tailing the owner: inclusive host ms of ``TabletServer.compact``,
the plan job (``IncrementalCompactionJob.run``), the owner's index
``repoint``, the checkpoint written after each plan, and the follower's
run re-home (reading the run index and re-pointing its replica).  Host
times are printed, never gated.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import time
from contextlib import contextmanager

from conftest import RECORD_SIZE, append_trajectory
from repro.bench.adapters import LogBaseAdapter, make_logbase
from repro.config import LogBaseConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.follower import LogTailer
from repro.core.tablet_server import TabletServer
from repro.index.blink import BLinkTreeIndex
from repro.sim.failure import CP_DFS_APPEND, FaultPlan, fault_plan
from repro.sim.metrics import (
    COMPACTION_BYTES_READ,
    COMPACTION_BYTES_WRITTEN,
    COMPACTION_PLANS,
    LOG_INGEST_BYTES,
)
from repro.wal.compaction import IncrementalCompactionJob
from repro.wal.planner import CompactionPlan

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_compaction.json"

DEFAULT_RECORDS = 1200
DEFAULT_ROUNDS = 10
SMOKE_RECORDS = 400
SMOKE_ROUNDS = 8  # the acceptance bar requires >= 8 churn rounds
SCANS = 16
RANGE_SIZE = 80  # tuples returned per scan, the Fig. 10 mid-range point
# One append per 64 KiB chunk of a run is 16 per MiB, plus each run's last
# partial chunk; one append per 1 KB record was ~1,000.
MAX_ROUND_TRIPS_PER_MIB = 20.0

# The deterministic probe: round PROBE_ROUND (1-based) of the incremental
# arm at smoke size, and what its compaction must charge.
PROBE_ROUND = 3
PINNED_ROUND = {
    "sim_seconds": 0.08025467199999992,
    "compaction_bytes_read": 210800,
    "compaction_bytes_written": 206000,
    "disk_bytes_written": 1326096,
}


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


def compact_monolithic(adapter: LogBaseAdapter) -> None:
    """One whole-log tail plan per server: what ``TabletServer.compact``
    does, minus the planner."""
    for server in adapter.cluster.servers:
        inputs = tuple(server.log.segments())
        server.log.roll()
        plan = CompactionPlan(
            "tail", inputs, sum(server.log.segment_bytes(f) for f in inputs)
        )
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


def run_churn(
    adapter: LogBaseAdapter, records: int, rounds: int, compact, *, seed: int = 11
) -> dict:
    """Load, then ``rounds`` rounds of uniform overwrites, each followed
    by ``compact(adapter)``.

    Returns per-round cumulative compaction I/O, the final rewrite
    amplification (compaction bytes written / ingested bytes) and the DFS
    append round trips compaction paid per MiB of output.
    """
    rng = random.Random(seed)
    keys = [f"user{i:08d}".encode() for i in range(records)]
    for key in keys:
        adapter.put(0, key, rng.randbytes(RECORD_SIZE))
    updates_per_round = records // 2
    per_round: list[dict] = []
    run_appends = [0]
    clocks = [machine.clock for machine in adapter.cluster.machines]
    for _ in range(rounds):
        for _ in range(updates_per_round):
            adapter.put(0, rng.choice(keys), rng.randbytes(RECORD_SIZE))
        began = sum(clock.now for clock in clocks)
        with counting_run_appends(adapter, run_appends):
            compact(adapter)
        counters = adapter.cluster.total_counters()
        per_round.append(
            {
                "compaction_bytes_written": counters.get(COMPACTION_BYTES_WRITTEN, 0.0),
                "compaction_bytes_read": counters.get(COMPACTION_BYTES_READ, 0.0),
                "ingest_bytes": counters.get(LOG_INGEST_BYTES, 0.0),
                "disk_bytes_written": counters.get("disk.bytes_written", 0.0),
                # simulated seconds the round's compaction charged, summed
                # over every machine's clock
                "sim_seconds": sum(clock.now for clock in clocks) - began,
            }
        )
    counters = adapter.cluster.total_counters()
    written = counters.get(COMPACTION_BYTES_WRITTEN, 0.0)
    ingested = counters.get(LOG_INGEST_BYTES, 0.0)
    return {
        "rounds": per_round,
        "compaction_bytes_written": written,
        "compaction_bytes_read": counters.get(COMPACTION_BYTES_READ, 0.0),
        "ingest_bytes": ingested,
        "compaction_plans": counters.get(COMPACTION_PLANS, 0.0),
        "rewrite_amplification": written / ingested if ingested else 0.0,
        "run_append_round_trips": run_appends[0],
        "round_trips_per_mib": run_appends[0] / (written / 2**20) if written else 0.0,
        "live_segments": sum(
            len(server.log.segments()) for server in adapter.cluster.servers
        ),
    }


def probe() -> dict[str, float]:
    """Round ``PROBE_ROUND`` of the incremental arm at smoke size: what its
    compaction charged (simulated seconds, and the counters' deltas)."""
    adapter = build_adapter(SMOKE_RECORDS)
    rounds = run_churn(adapter, SMOKE_RECORDS, PROBE_ROUND, LogBaseAdapter.compact_all)
    before, last = rounds["rounds"][-2], rounds["rounds"][-1]
    return {
        name: last[name] - (0.0 if name == "sim_seconds" else before[name])
        for name in PINNED_ROUND
    }


@contextmanager
def host_timers(spent: dict[str, float]):
    """Within the block, add each costed function's inclusive host
    seconds to ``spent`` under its column name."""
    targets = [
        ("compact", TabletServer, "compact"),
        ("plan job", IncrementalCompactionJob, "run"),
        ("repoint", BLinkTreeIndex, "repoint"),
        ("checkpoint", CheckpointManager, "write_checkpoint"),
        ("follower re-home", LogTailer, "_run_entries"),
        ("follower re-home", LogTailer, "_rehome"),
    ]
    saved = []
    for column, owner, name in targets:
        original = owner.__dict__.get(name)
        if original is None:  # an older tree without this step
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
        with host_timers(spent):
            adapter.compact_all()
            tailer.tail(10 * records)
        per_round.append({column: 1e3 * seconds for column, seconds in spent.items()})
    return per_round


def format_round_costs(per_round: list[dict]) -> str:
    columns = ["compact", "plan job", "repoint", "checkpoint", "follower re-home"]
    lines = [
        "Host cost of one incremental round (ms, inclusive; compact holds the "
        "plan job, repoint and checkpoint)",
        f"{'round':>5} " + " ".join(f"{column:>16}" for column in columns),
    ]
    for number, spent in enumerate(per_round, 1):
        lines.append(
            f"{number:>5} "
            + " ".join(f"{spent.get(column, 0.0):>16.2f}" for column in columns)
        )
    return "\n".join(lines)


def run_scan_phase(
    adapter: LogBaseAdapter, records: int, *, seed: int = 5
) -> dict[str, float]:
    """Cold post-compaction range scans (the Fig. 10 read-path check)."""
    rng = random.Random(seed)
    keys = [f"user{i:08d}".encode() for i in range(records)]
    adapter.drop_caches()
    adapter.reset_clocks()
    simulated = 0.0
    rows = 0
    for _ in range(SCANS):
        start_idx = rng.randrange(max(1, len(keys) - RANGE_SIZE))
        start = keys[start_idx]
        end = keys[min(start_idx + RANGE_SIZE, len(keys) - 1)]
        returned, seconds = adapter.range_scan(0, start, end)
        rows += returned
        simulated += seconds
    return {"rows": rows, "simulated_seconds": simulated}


def run_experiment(records: int = DEFAULT_RECORDS, rounds: int = DEFAULT_ROUNDS) -> dict:
    """The full churn comparison; identical workload seeds per arm."""
    results: dict = {
        "records": records,
        "rounds": rounds,
        "scans": SCANS,
        "range_size": RANGE_SIZE,
    }
    for label, compact in (
        ("monolithic", compact_monolithic),
        ("incremental", LogBaseAdapter.compact_all),
    ):
        adapter = build_adapter(records)
        arm = run_churn(adapter, records, rounds, compact)
        arm["scan"] = run_scan_phase(adapter, records)
        results[label] = arm
    mono = results["monolithic"]
    inc = results["incremental"]
    results["write_reduction"] = (
        1.0 - inc["compaction_bytes_written"] / mono["compaction_bytes_written"]
        if mono["compaction_bytes_written"]
        else 0.0
    )
    results["scan_delta"] = (
        inc["scan"]["simulated_seconds"] / mono["scan"]["simulated_seconds"] - 1.0
        if mono["scan"]["simulated_seconds"]
        else 0.0
    )
    return results


def format_report(results: dict) -> str:
    lines = [
        f"Compaction churn ({results['records']} records, "
        f"{results['rounds']} rounds, "
        f"{results['scans']} scans x {results['range_size']} tuples)",
        f"{'arm':<12} {'cmp MB wr':>10} {'cmp MB rd':>10} {'amp':>6} "
        f"{'plans':>6} {'segs':>5} {'scan s':>8} {'appends/MiB':>12}",
    ]
    for arm in ("monolithic", "incremental"):
        a = results[arm]
        lines.append(
            f"{arm:<12} {a['compaction_bytes_written'] / 1e6:>10.2f} "
            f"{a['compaction_bytes_read'] / 1e6:>10.2f} "
            f"{a['rewrite_amplification']:>6.2f} {a['compaction_plans']:>6.0f} "
            f"{a['live_segments']:>5d} {a['scan']['simulated_seconds']:>8.4f} "
            f"{a['round_trips_per_mib']:>12.1f}"
        )
    lines.append(
        f"compaction write reduction: {results['write_reduction']:.0%}  "
        f"scan delta: {results['scan_delta']:+.1%}"
    )
    return "\n".join(lines)


def check_acceptance(results: dict, round_probe: dict[str, float]) -> list[str]:
    """The acceptance bars and the pinned probe round; returns a list of
    violations (empty = pass)."""
    failures = []
    sim = round_probe["sim_seconds"]
    if abs(sim - PINNED_ROUND["sim_seconds"]) > 1e-9 * PINNED_ROUND["sim_seconds"]:
        failures.append(f"round {PROBE_ROUND} simulated seconds {sim!r} != pinned")
    for name, pinned in PINNED_ROUND.items():
        if name != "sim_seconds" and round_probe[name] != pinned:
            failures.append(
                f"round {PROBE_ROUND} {name} {round_probe[name]:.0f} != pinned {pinned}"
            )
    mono = results["monolithic"]
    inc = results["incremental"]
    if results["write_reduction"] < 0.40:
        failures.append(
            f"expected >= 40% fewer compaction bytes written, got "
            f"{results['write_reduction']:.0%}"
        )
    if inc["rewrite_amplification"] >= mono["rewrite_amplification"]:
        failures.append(
            f"incremental rewrite amplification "
            f"{inc['rewrite_amplification']:.2f} not strictly below "
            f"monolithic {mono['rewrite_amplification']:.2f}"
        )
    for label, arm in (("monolithic", mono), ("incremental", inc)):
        if arm["round_trips_per_mib"] > MAX_ROUND_TRIPS_PER_MIB:
            failures.append(
                f"{label} compaction paid {arm['round_trips_per_mib']:.1f} DFS "
                f"append round trips per MiB of output (allowed: "
                f"{MAX_ROUND_TRIPS_PER_MIB:.0f}; a 64 KiB chunk per append is 16)"
            )
    if inc["scan"]["rows"] != mono["scan"]["rows"]:
        failures.append(
            f"scan rows diverged: {inc['scan']['rows']} vs {mono['scan']['rows']}"
        )
    if results["scan_delta"] > 0.05:
        failures.append(
            f"post-compaction scans {results['scan_delta']:+.1%} slower than "
            f"monolithic (allowed: +5%)"
        )
    return failures


# -- pytest entry point -----------------------------------------------------------


def test_compaction_churn():
    results = run_experiment(records=SMOKE_RECORDS, rounds=SMOKE_ROUNDS)
    assert results["incremental"]["ingest_bytes"] == results["monolithic"]["ingest_bytes"]
    failures = check_acceptance(results, probe())
    assert not failures, "; ".join(failures)


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
    results = run_experiment(records=records, rounds=rounds)
    print(format_report(results))
    print(format_round_costs(host_cost_rounds(records, rounds)))
    round_probe = probe()
    print(
        f"probe: round {PROBE_ROUND} at {SMOKE_RECORDS} records charged "
        + ", ".join(f"{name} {value!r}" for name, value in round_probe.items())
    )
    if not args.smoke:  # smoke runs (CI) must not pollute the trajectory
        append_trajectory(TRAJECTORY, results)
        print(f"\ntrajectory appended to {TRAJECTORY}")
    failures = check_acceptance(results, round_probe)
    if failures:
        raise SystemExit("ACCEPTANCE FAILED: " + "; ".join(failures))
    print("acceptance bars met")


if __name__ == "__main__":
    main()
