"""Chaos benchmark: fault schedules vs the history checker.

Runs every registry row of one chaos family (``--family``, default the
fail-stop ``base`` schedules; ``all`` walks the whole registry) across a
matrix of workload seeds, each under the row's own config and under
``production(segment_size=64 KiB)``, and reports, per run, what the
schedule did (faults fired, servers failed over, replicas repaired), what
the history checker judged (reads, committed transactions, violations by
class) and whether every contract the run's config arms held: the
history checker's read rule over every read (acked writes readable after
recovery, no cleanly-aborted write visible, indeterminate commits atomic,
sessions and follower watermarks honoured, no lost update) — plus single
ownership where the run has live migration.

Unlike the figure benches this is a pass/fail harness, but it is
reported like a benchmark: one row per (scenario, seed) and a trajectory
entry appended to ``BENCH_chaos.json`` at the repo root so durability
coverage is tracked across commits (``--smoke`` appends nothing).

Run directly (``python benchmarks/bench_chaos.py [--family F] [--smoke]``)
or via pytest, which asserts every run passes the oracle.
"""

from __future__ import annotations

import argparse
import pathlib

from conftest import append_trajectory
from repro.chaos import SCENARIOS, matrix

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_chaos.json"

FAMILIES = sorted({row.family for row in SCENARIOS.values()})
DEFAULT_SEEDS = (1, 2, 3, 4, 5)
SMOKE_SEEDS = (1, 2)


def run_experiment(
    family: str = "base",
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    ops: int | None = None,
) -> dict:
    """The family's scenario x seed matrix; returns per-run reports.
    ``ops`` None runs every row at its own calibrated size."""
    runs = matrix(family, seeds, ops)
    return {
        "family": family,
        "ops": ops,
        "seeds": list(seeds),
        "configs": list(dict.fromkeys(r["config"] for r in runs)),
        "scenarios": list(
            dict.fromkeys(f"{r['family']}/{r['scenario']}" for r in runs)
        ),
        "runs": runs,
        "passed": sum(1 for r in runs if r["passed"]),
        "failed": sum(1 for r in runs if not r["passed"]),
    }


def format_report(results: dict) -> str:
    lines = [
        f"Chaos suite, family {results['family']} "
        f"({len(results['scenarios'])} scenarios x "
        f"{len(results['seeds'])} seeds x {len(results['configs'])} configs, "
        f"{results['ops'] or 'each row its own'} ops)",
        f"{'scenario':<42} {'config':<10} {'seed':>4} {'ok':>3} {'acked':>6} "
        f"{'abrt':>5} {'indet':>6} {'faults':>7} {'expired':>7} {'rerepl':>7} "
        f"{'reads':>6} {'txns':>5}",
    ]
    for run in results["runs"]:
        lines.append(
            f"{run['family'] + '/' + run['scenario']:<42} {run['config']:<10} "
            f"{run['seed']:>4} {'y' if run['passed'] else 'N':>3} {run['acked']:>6} "
            f"{run['aborted']:>5} {run['indeterminate']:>6} "
            f"{run['faults_fired']:>7} {len(run['expired_servers']):>7} "
            f"{run['rereplicated']:>7} {run['reads_checked']:>6} "
            f"{run['txns_checked']:>5}"
        )
        for violation in run["violations"]:
            lines.append(f"    VIOLATION: {violation}")
    checked = checker_counts(results["runs"])
    lines.append(
        f"history checker: {checked['reads_checked']} reads, "
        f"{checked['txns_checked']} committed transactions "
        f"({checked['txn_overlaps_on_key']} overlapping pairs on a key, "
        f"{checked['validation_aborts']} first-committer-wins aborts), "
        f"violations by class {checked['violations_by_class']}"
    )
    lines.append(
        f"chaos contracts: {results['passed']}/{len(results['runs'])} "
        f"runs passed"
    )
    return "\n".join(lines)


def checker_counts(runs: list[dict]) -> dict:
    """The history checker's counts, summed over ``runs``."""
    by_class: dict[str, int] = {}
    for run in runs:
        for name, count in run["violations_by_class"].items():
            by_class[name] = by_class.get(name, 0) + count
    counts = {
        name: sum(run.get(name, 0) for run in runs)
        for name in ("reads_checked", "txns_checked", "txn_overlaps_on_key", "validation_aborts")
    }
    return {**counts, "violations_by_class": by_class}


def trajectory_entry(results: dict) -> dict:
    return {
        "family": results["family"],
        "ops": results["ops"],
        "seeds": results["seeds"],
        "configs": results["configs"],
        "scenarios": results["scenarios"],
        "passed": results["passed"],
        "failed": results["failed"],
        **checker_counts(results["runs"]),
        "violations": [
            violation
            for run in results["runs"]
            for violation in run["violations"]
        ],
    }


# -- pytest entry point -----------------------------------------------------


def test_chaos_matrix():
    results = run_experiment(seeds=(1, 2), ops=40)  # the base family
    failed = [r for r in results["runs"] if not r["passed"]]
    assert not failed, "\n".join(
        f"{r['scenario']} seed={r['seed']}: {r['violations']}" for r in failed
    )
    # The schedules really disrupted something: crash-point scenarios
    # fired faults, event scenarios re-replicated or failed over.
    by_scenario: dict[str, int] = {}
    for r in results["runs"]:
        by_scenario[r["scenario"]] = by_scenario.get(r["scenario"], 0) + (
            r["faults_fired"]
            + r["rereplicated"]
            + len(r["expired_servers"])
            + len(r["restarted_servers"])
        )
    quiet = [name for name, disruption in by_scenario.items() if disruption == 0]
    assert not quiet, f"scenarios caused no disruption: {quiet}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small matrix for CI smoke runs"
    )
    parser.add_argument(
        "--family",
        choices=[*FAMILIES, "all"],
        default="base",
        help="registry family to run (default: base; all: every row)",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=None,
        help="workload size for every row (default: each row's own)",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=None, metavar="SEED"
    )
    args = parser.parse_args()
    seeds = (
        tuple(args.seeds)
        if args.seeds is not None
        else (SMOKE_SEEDS if args.smoke else DEFAULT_SEEDS)
    )
    if args.ops is not None and args.ops < 10:
        parser.error("--ops must be >= 10 (maintenance ops need room)")
    results = run_experiment(args.family, seeds=seeds, ops=args.ops)
    print(format_report(results))
    if not args.smoke:
        append_trajectory(TRAJECTORY, trajectory_entry(results))
        print(f"\ntrajectory appended to {TRAJECTORY}")
    if results["failed"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
