"""Chaos benchmark: fault schedules vs the durability oracle.

Runs every named chaos scenario (``repro.chaos.schedules``) across a
matrix of workload seeds and reports, per run, what the schedule did
(faults fired, servers failed over, replicas repaired) and whether the
durability contract held: every acknowledged write readable after
recovery, no cleanly-aborted write visible, indeterminate commits
atomic.

Unlike the figure benches this is a pass/fail harness, but it is
reported like a benchmark: one row per (scenario, seed) and a trajectory
entry appended to ``BENCH_chaos.json`` at the repo root so durability
coverage is tracked across commits.

Run directly (``python benchmarks/bench_chaos.py [--smoke]``) or via
pytest, which asserts every run passes the oracle.
"""

from __future__ import annotations

import argparse
import pathlib

from conftest import append_trajectory
from repro.chaos import SCHEDULES, run_chaos

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_chaos.json"

DEFAULT_SEEDS = (1, 2, 3, 4, 5)
DEFAULT_OPS = 60
SMOKE_SEEDS = (1, 2)
SMOKE_OPS = 40


def run_experiment(
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    ops: int = DEFAULT_OPS,
    scenarios: tuple[str, ...] | None = None,
) -> dict:
    """The full scenario x seed matrix; returns per-run reports."""
    names = tuple(scenarios) if scenarios is not None else tuple(SCHEDULES)
    runs = []
    for name in names:
        for seed in seeds:
            report = run_chaos(name, seed=seed, ops=ops)
            runs.append(report.to_dict())
    return {
        "ops": ops,
        "seeds": list(seeds),
        "scenarios": list(names),
        "runs": runs,
        "passed": sum(1 for r in runs if r["passed"]),
        "failed": sum(1 for r in runs if not r["passed"]),
    }


def format_report(results: dict) -> str:
    lines = [
        f"Chaos suite ({len(results['scenarios'])} scenarios x "
        f"{len(results['seeds'])} seeds, {results['ops']} ops each)",
        f"{'scenario':<24} {'seed':>4} {'ok':>3} {'acked':>6} {'abrt':>5} "
        f"{'indet':>6} {'faults':>7} {'rescue':>7} {'rerepl':>7}",
    ]
    for run in results["runs"]:
        lines.append(
            f"{run['scenario']:<24} {run['seed']:>4} "
            f"{'y' if run['passed'] else 'N':>3} {run['acked']:>6} "
            f"{run['aborted']:>5} {run['indeterminate']:>6} "
            f"{run['faults_fired']:>7} {run['rescued_ops']:>7} "
            f"{run['rereplicated']:>7}"
        )
        for violation in run["violations"]:
            lines.append(f"    VIOLATION: {violation}")
    lines.append(
        f"durability contract: {results['passed']}/{len(results['runs'])} "
        f"runs passed"
    )
    return "\n".join(lines)


def trajectory_entry(results: dict) -> dict:
    return {
        "ops": results["ops"],
        "seeds": results["seeds"],
        "scenarios": results["scenarios"],
        "passed": results["passed"],
        "failed": results["failed"],
        "violations": [
            violation
            for run in results["runs"]
            for violation in run["violations"]
        ],
    }


# -- pytest entry point -----------------------------------------------------


def test_chaos_matrix():
    results = run_experiment(seeds=(1, 2), ops=40)
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
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=None, metavar="SEED"
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCHEDULES),
        action="append",
        help="run only this scenario (repeatable)",
    )
    args = parser.parse_args()
    seeds = (
        tuple(args.seeds)
        if args.seeds is not None
        else (SMOKE_SEEDS if args.smoke else DEFAULT_SEEDS)
    )
    ops = args.ops if args.ops is not None else (SMOKE_OPS if args.smoke else DEFAULT_OPS)
    if ops < 10:
        parser.error("--ops must be >= 10 (maintenance ops need room)")
    scenarios = tuple(args.scenario) if args.scenario else None
    results = run_experiment(seeds=seeds, ops=ops, scenarios=scenarios)
    print(format_report(results))
    append_trajectory(TRAJECTORY, trajectory_entry(results))
    print(f"\ntrajectory appended to {TRAJECTORY}")
    if results["failed"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
