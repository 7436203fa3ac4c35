"""Group-commit fan-in sweep: one replication round trip per group.

Runs the concurrent-client put workload
(:func:`repro.bench.concurrent.run_concurrent_puts`) on a single-server
3-node LogBase (every server's writes go through its commit coordinator)
at client fan-ins of 1, 8 and 64.  Every arm writes the same number of
records; the sweep shows
the commit coordinator collapsing DFS replication round trips from one
per committed op toward one per group as concurrent submissions pile
into each group window.

Reports per-arm commit throughput, commit latency p50/p99, mean group
fan-in, and DFS append round trips per committed op, then appends a run
entry to ``BENCH_group_commit.json`` at the repo root so the trajectory
is tracked across commits.

Run directly (``python benchmarks/bench_group_commit.py [--smoke]``) or
via pytest, which asserts the acceptance bars: fan-in 64 throughput
>= 5x the fan-in-1 baseline, round trips per committed op <= 0.1 at
fan-in 64 and < 0.5 at fan-in 8, and zero failed commits.
"""

from __future__ import annotations

import argparse
import pathlib

from conftest import RECORD_SIZE, append_trajectory
from repro.bench.adapters import LogBaseAdapter, make_logbase
from repro.bench.concurrent import run_concurrent_puts
from repro.config import LogBaseConfig
from repro.sim.metrics import (
    COMMIT_ACKS_DEFERRED,
    COMMIT_GROUP_FANIN,
    COMMIT_GROUPS,
    DFS_APPEND_ROUND_TRIPS,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_group_commit.json"

FANINS = (1, 8, 64)
DEFAULT_OPS = 1024
SMOKE_OPS = 256


def build_adapter(ops: int) -> LogBaseAdapter:
    """A single-server 3-node LogBase (the §4.2 micro-benchmark
    deployment) sized so the whole phase stays in one segment regime."""
    total = max(ops * RECORD_SIZE, 64 * 1024)
    config = LogBaseConfig(
        segment_size=max(total // 4, 64 * 1024), heap_bytes=8 * total
    )
    return make_logbase(
        3,
        records_per_node=ops,
        record_size=RECORD_SIZE,
        config=config,
        single_server=True,
    )


def run_arm(ops: int, fanin: int) -> dict:
    """One fresh-cluster arm of the sweep."""
    adapter = build_adapter(ops)
    counters_before = adapter.cluster.total_counters()
    result = run_concurrent_puts(
        adapter, n_clients=fanin, n_ops=ops, value=b"x" * RECORD_SIZE
    )
    counters = adapter.cluster.total_counters()
    round_trips = counters.get(DFS_APPEND_ROUND_TRIPS, 0.0) - counters_before.get(
        DFS_APPEND_ROUND_TRIPS, 0.0
    )
    groups = counters.get(COMMIT_GROUPS, 0.0)
    fanin_sum = counters.get(COMMIT_GROUP_FANIN, 0.0)
    return {
        "fanin": fanin,
        "ops": ops,
        "acked": result.acked,
        "failed": result.failed,
        "makespan_seconds": result.makespan,
        "throughput": result.throughput,
        "commit_p50_ms": 1000.0 * result.percentile(0.50),
        "commit_p99_ms": 1000.0 * result.percentile(0.99),
        "groups": groups,
        "mean_group_fanin": fanin_sum / groups if groups else 0.0,
        "acks_deferred": counters.get(COMMIT_ACKS_DEFERRED, 0.0),
        "round_trips": round_trips,
        "round_trips_per_op": round_trips / result.acked if result.acked else 0.0,
    }


def run_experiment(ops: int = DEFAULT_OPS) -> dict:
    """The fan-in sweep."""
    results: dict = {"ops": ops, "record_size": RECORD_SIZE, "arms": []}
    for fanin in FANINS:
        results["arms"].append(run_arm(ops, fanin))
    by_fanin = {a["fanin"]: a for a in results["arms"]}
    baseline = by_fanin[1]
    results["speedup_64_vs_1"] = (
        by_fanin[64]["throughput"] / baseline["throughput"]
        if baseline["throughput"]
        else 0.0
    )
    return results


def format_report(results: dict) -> str:
    lines = [
        f"Group-commit fan-in sweep ({results['ops']} puts x "
        f"{results['record_size']} B, single-server 3-node cluster)",
        f"{'arm':<14} {'acked':>6} {'thr op/s':>10} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'groups':>7} {'fan-in':>7} {'rt/op':>7}",
    ]
    for arm in results["arms"]:
        label = f"fanin={arm['fanin']}"
        lines.append(
            f"{label:<14} {arm['acked']:>6d} {arm['throughput']:>10.0f} "
            f"{arm['commit_p50_ms']:>8.2f} {arm['commit_p99_ms']:>8.2f} "
            f"{arm['groups']:>7.0f} {arm['mean_group_fanin']:>7.1f} "
            f"{arm['round_trips_per_op']:>7.3f}"
        )
    lines.append(f"throughput speedup, fan-in 64 vs fan-in 1: {results['speedup_64_vs_1']:.1f}x")
    return "\n".join(lines)


def check_acceptance(results: dict) -> list[str]:
    """The acceptance bars; returns a list of violations (empty = pass)."""
    failures = []
    by_fanin = {a["fanin"]: a for a in results["arms"]}
    for arm in results["arms"]:
        if arm["failed"] or arm["acked"] != arm["ops"]:
            failures.append(
                f"fanin={arm['fanin']}: {arm['failed']} failed, "
                f"{arm['acked']}/{arm['ops']} acked"
            )
    if results["speedup_64_vs_1"] < 5.0:
        failures.append(
            f"expected >= 5x throughput at fan-in 64 vs fan-in 1, got "
            f"{results['speedup_64_vs_1']:.1f}x"
        )
    if by_fanin[64]["round_trips_per_op"] > 0.1:
        failures.append(
            f"fan-in 64: {by_fanin[64]['round_trips_per_op']:.3f} DFS round "
            f"trips per committed op (allowed: <= 0.1)"
        )
    if by_fanin[8]["round_trips_per_op"] >= 0.5:
        failures.append(
            f"fan-in 8: {by_fanin[8]['round_trips_per_op']:.3f} DFS round "
            f"trips per committed op (allowed: < 0.5)"
        )
    return failures


# -- pytest entry point -----------------------------------------------------------


def test_group_commit_fanin():
    results = run_experiment(ops=SMOKE_OPS)
    failures = check_acceptance(results)
    assert not failures, "; ".join(failures)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument("--ops", type=int, default=None)
    args = parser.parse_args()
    ops = args.ops if args.ops is not None else (SMOKE_OPS if args.smoke else DEFAULT_OPS)
    if ops < max(FANINS):
        parser.error(f"--ops must be >= {max(FANINS)}")
    results = run_experiment(ops=ops)
    print(format_report(results))
    if not args.smoke:  # smoke runs (CI) must not pollute the trajectory
        append_trajectory(TRAJECTORY, results)
        print(f"\ntrajectory appended to {TRAJECTORY}")
    failures = check_acceptance(results)
    if failures:
        raise SystemExit("ACCEPTANCE FAILED: " + "; ".join(failures))
    print("acceptance bars met")


if __name__ == "__main__":
    main()
