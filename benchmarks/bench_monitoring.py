"""Monitoring-plane benchmark: detection latency and enabled-gate overhead.

Two halves, both pass/fail bars reported like a benchmark:

* **Detection oracle** (``repro.chaos.detection``): every registry row
  that names an expected alert (the gray, migration, recovery, and
  replica chaos families) must fire it within the family's simulated-
  time budget, while the clean twin of each run — same config, seeding
  and workload, no fault — must raise zero alerts.  The report shows the
  measured detection latency per (family, scenario).
* **Overhead bound**: a monitored cluster at the default production
  scrape cadence (``monitor_scrape_interval``) must cost less than
  :data:`OVERHEAD_BOUND` extra wall-clock time on a write/read workload
  versus the identical cluster with the gate off.  The two clusters run
  in lock step, one :data:`OVERHEAD_SLICE` of the same operations each
  in turn (off, on, on, off, ...), and the bar is on the median of the
  on/off ratios of those slice pairs over N repeats: the two halves of a
  pair are milliseconds apart, so a machine whose cores change speed, or
  a neighbour that takes one for a while, slows both.  Min-of-N of each
  arm's whole wall clock is reported beside it; on a shared machine
  that difference scatters by more than the bound's margin.

One row per oracle entry; a full run also appends a trajectory entry to
``BENCH_monitoring.json`` at the repo root (``--smoke`` writes nothing).
Run directly (``python benchmarks/bench_monitoring.py [--smoke]``) or
via pytest.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import statistics
import time
from collections.abc import Iterator

from conftest import append_trajectory
from repro.chaos.detection import DETECTION_BUDGETS, detectable, run_detection
from repro.chaos.scenario import GROUP, KEY_DOMAIN, KEY_WIDTH, SCHEMA, TABLE
from repro.config import LogBaseConfig
from repro.core.database import LogBase

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_monitoring.json"

#: maximum tolerated wall-clock overhead of the enabled gate.
OVERHEAD_BOUND = 0.05

#: overhead workload size, the slice the arms take turns on, and how many
#: times the whole workload is repeated.
OVERHEAD_OPS = 2000
OVERHEAD_SLICE = 50
OVERHEAD_REPEATS = 7

#: smoke subset: one scenario per family, covering every alert shape
#: (gauge threshold, counter delta, SLO burn / staleness).
SMOKE_SCENARIOS = (
    "gray/limp-datanode-mid-scan",
    "migration/partition-old-owner",
    "recovery/crash-during-recovery",
    "replica/stale-follower-reads",
)


def _overhead_arm(monitoring: bool, ops: int, seed: int) -> Iterator[float]:
    """The standard write/read loop with the monitoring gate on or off
    (everything else identical), one slice per step: yields the
    wall-clock seconds each :data:`OVERHEAD_SLICE` operations took."""
    config = LogBaseConfig.with_fault_tolerance(
        segment_size=64 * 1024, monitoring=monitoring
    )
    db = LogBase(n_nodes=4, config=config)
    db.create_table(SCHEMA, tablets_per_server=2)
    rng = random.Random(seed)
    keys = [
        str(v).zfill(KEY_WIDTH).encode()
        for v in rng.sample(range(KEY_DOMAIN), ops)
    ]
    client = db.client(db.cluster.machines[-1])
    for first in range(0, ops, OVERHEAD_SLICE):
        start = time.perf_counter()
        for i in range(first, min(first + OVERHEAD_SLICE, ops)):
            client.put_raw(TABLE, keys[i], GROUP, b"v" * 64)
            if i % 3 == 0:
                client.get_raw(TABLE, keys[rng.randrange(i + 1)], GROUP)
            db.cluster.heartbeat()
        yield time.perf_counter() - start


def measure_overhead(
    ops: int = OVERHEAD_OPS,
    repeats: int = OVERHEAD_REPEATS,
    seed: int = 1,
) -> dict:
    """The relative overhead (median over every slice pair of every
    repeat) and the min-of-N wall clock of both arms."""
    ratios = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    for repeat in range(repeats):
        arms = {gate: _overhead_arm(gate, ops, seed) for gate in (False, True)}
        total = {False: 0.0, True: 0.0}
        for pair in range(-(-ops // OVERHEAD_SLICE)):
            lead = bool((repeat + pair) % 2)  # which arm goes first alternates
            took = {gate: next(arms[gate]) for gate in (lead, not lead)}
            ratios.append(took[True] / took[False])
            for gate in took:
                total[gate] += took[gate]
        for gate, arm in arms.items():
            arm.close()
            walls[gate].append(total[gate])
    return {
        "ops": ops,
        "repeats": repeats,
        "wall_off_seconds": min(walls[False]),
        "wall_on_seconds": min(walls[True]),
        "overhead": statistics.median(ratios) - 1.0,
        "bound": OVERHEAD_BOUND,
    }


def run_experiment(seed: int = 1, *, smoke: bool = False) -> dict:
    """Detection matrix (full or smoke subset) plus the overhead bound."""
    names = SMOKE_SCENARIOS if smoke else detectable()
    detections = [run_detection(name, seed) for name in names]
    overhead = measure_overhead(seed=seed)
    rows = [d.to_dict() for d in detections]
    return {
        "seed": seed,
        "smoke": smoke,
        "budgets": dict(DETECTION_BUDGETS),
        "detections": rows,
        "overhead": overhead,
        "passed": sum(1 for r in rows if r["passed"]),
        "failed": sum(1 for r in rows if not r["passed"]),
    }


def check(results: dict) -> list[str]:
    """Every bar this benchmark holds; empty means green."""
    problems = []
    for row in results["detections"]:
        tag = f"{row['family']}/{row['scenario']}"
        if not row["run_passed"]:
            problems.append(f"{tag}: underlying chaos contract violated")
        if row["detection_latency"] is None:
            problems.append(
                f"{tag}: expected alert {row['expected_alert']!r} never "
                f"fired (fired: {row['fired']})"
            )
        elif row["detection_latency"] > row["budget"]:
            problems.append(
                f"{tag}: detection took {row['detection_latency']:.4f}s "
                f"simulated, budget {row['budget']:.2f}s"
            )
        if row["clean_alerts"]:
            problems.append(
                f"{tag}: clean twin raised "
                f"{[a['alert'] for a in row['clean_alerts']]}"
            )
    overhead = results["overhead"]
    if overhead["overhead"] >= overhead["bound"]:
        problems.append(
            f"monitoring overhead {overhead['overhead']:.1%} >= "
            f"{overhead['bound']:.0%} bound "
            f"({overhead['wall_off_seconds']:.3f}s off -> "
            f"{overhead['wall_on_seconds']:.3f}s on)"
        )
    return problems


def format_report(results: dict) -> str:
    lines = [
        f"Monitoring plane ({len(results['detections'])} fault schedules, "
        f"seed {results['seed']})",
        f"{'family':<10} {'scenario':<30} {'expected alert':<20} "
        f"{'latency':>8} {'budget':>7} {'clean':>5} {'ok':>3}",
    ]
    for row in results["detections"]:
        latency = (
            f"{row['detection_latency']:.4f}"
            if row["detection_latency"] is not None
            else "never"
        )
        lines.append(
            f"{row['family']:<10} {row['scenario']:<30} "
            f"{row['expected_alert']:<20} {latency:>8} "
            f"{row['budget']:>7.2f} {len(row['clean_alerts']):>5} "
            f"{'y' if row['passed'] else 'N':>3}"
        )
    overhead = results["overhead"]
    lines.append(
        f"enabled-gate overhead: {overhead['overhead']:.2%} "
        f"(bound {overhead['bound']:.0%}; median of the on/off slice pairs, "
        f"{overhead['ops']} ops x {overhead['repeats']}; whole arms "
        f"{overhead['wall_off_seconds'] * 1000:.1f}ms off -> "
        f"{overhead['wall_on_seconds'] * 1000:.1f}ms on, min of "
        f"{overhead['repeats']} each)"
    )
    problems = check(results)
    lines.append(
        "all bars green"
        if not problems
        else "BARS FAILED:\n  " + "\n  ".join(problems)
    )
    return "\n".join(lines)


def trajectory_entry(results: dict) -> dict:
    return {
        "seed": results["seed"],
        "smoke": results["smoke"],
        "passed": results["passed"],
        "failed": results["failed"],
        "overhead": results["overhead"],
        "detections": [
            {
                "family": r["family"],
                "scenario": r["scenario"],
                "expected_alert": r["expected_alert"],
                "detection_latency": r["detection_latency"],
                "passed": r["passed"],
            }
            for r in results["detections"]
        ],
        "problems": check(results),
    }


# -- pytest entry point -----------------------------------------------------


def test_monitoring_detection_and_overhead():
    results = run_experiment(smoke=True)
    problems = check(results)
    assert not problems, "\n".join(problems)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one scenario per family (the overhead half is the same); "
        "appends nothing to the trajectory",
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    results = run_experiment(seed=args.seed, smoke=args.smoke)
    print(format_report(results))
    if not args.smoke:
        append_trajectory(TRAJECTORY, trajectory_entry(results))
        print(f"\ntrajectory appended to {TRAJECTORY}")
    if check(results):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
