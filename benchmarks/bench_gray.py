"""Gray-failure benchmark: limping nodes vs the resilience layer.

Runs every ``gray/`` registry row (``repro.chaos.gray``) across a matrix
of workload seeds with the gray-resilience layer on, and — for the
limping-replica scenarios — an unmitigated control arm
(``repro.chaos.gray.control_config``) under the *same* fault plan, so
the report can quantify what deadlines, hedged reads, circuit
breakers and admission control buy: the read tail (p50/p99/max), hedge
win rates, breaker trips and admission sheds, with the durability oracle
still judging every run.

Like ``bench_chaos`` this is a pass/fail harness reported like a
benchmark: one row per (scenario, seed, arm) and a trajectory entry
appended to ``BENCH_gray.json`` at the repo root.  The headline metric
is tail-latency improvement — the mitigated arm must cut p99 read
latency by at least 30% under a limping home replica.

Run directly (``python benchmarks/bench_gray.py [--smoke]``) or via
pytest, which asserts the oracle and the improvement bar.
"""

from __future__ import annotations

import argparse
import pathlib

from conftest import append_trajectory
from repro.chaos import SCENARIOS, run_scenario
from repro.chaos.gray import control_config

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_gray.json"

GRAY_SCHEDULES = tuple(
    row.name for row in SCENARIOS.values() if row.family == "gray"
)
DEFAULT_SEEDS = (1, 2, 3)
DEFAULT_OPS = 60
SMOKE_SEEDS = (1,)
SMOKE_OPS = 60  # gray events are indexed up to op ~50; keep them firing

#: scenarios whose fault is a limping replica on the read path — the
#: ones where an unmitigated control arm shows the full latency tail.
COMPARE_SCENARIOS = ("limp-datanode-mid-scan", "hedge-under-limp")

#: required p99 read-latency improvement of the mitigated arm.
P99_IMPROVEMENT_BAR = 0.30


def run_experiment(
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    ops: int = DEFAULT_OPS,
    scenarios: tuple[str, ...] | None = None,
) -> dict:
    """The scenario x seed matrix plus mitigated-vs-control comparisons."""
    names = tuple(scenarios) if scenarios is not None else GRAY_SCHEDULES
    runs = []
    comparisons = []
    for name in names:
        for seed in seeds:
            mitigated = run_scenario(f"gray/{name}", seed=seed, ops=ops)
            row = mitigated.to_dict()
            row["arm"] = "resilient"
            runs.append(row)
            if name not in COMPARE_SCENARIOS:
                continue
            control = run_scenario(
                f"gray/{name}", seed=seed, ops=ops, config=control_config()
            )
            ctl_row = control.to_dict()
            ctl_row["arm"] = "control"
            runs.append(ctl_row)
            p99, ctl_p99 = row["read_p99"], ctl_row["read_p99"]
            comparisons.append(
                {
                    "scenario": name,
                    "seed": seed,
                    "p99_resilient": p99,
                    "p99_control": ctl_p99,
                    "p99_improvement": 1.0 - p99 / ctl_p99 if ctl_p99 > 0 else 0.0,
                }
            )
    return {
        "ops": ops,
        "seeds": list(seeds),
        "scenarios": list(names),
        "runs": runs,
        "comparisons": comparisons,
        "passed": sum(1 for r in runs if r["passed"]),
        "failed": sum(1 for r in runs if not r["passed"]),
    }


def format_report(results: dict) -> str:
    lines = [
        f"Gray-failure suite ({len(results['scenarios'])} scenarios x "
        f"{len(results['seeds'])} seeds, {results['ops']} ops each)",
        f"{'scenario':<24} {'seed':>4} {'arm':>9} {'ok':>3} "
        f"{'p50':>8} {'p99':>8} {'hedge':>9} {'trips':>5} "
        f"{'sheds':>5} {'ddl':>4}",
    ]
    for run in results["runs"]:
        hedge = f"{run['hedges_fired']}/{run['hedge_wins']}"
        lines.append(
            f"{run['scenario']:<24} {run['seed']:>4} {run['arm']:>9} "
            f"{'y' if run['passed'] else 'N':>3} "
            f"{run['read_p50']:>8.4f} {run['read_p99']:>8.4f} "
            f"{hedge:>9} {run['breaker_trips']:>5} "
            f"{run['admission_sheds']:>5} {run['deadline_exceeded']:>4}"
        )
        for violation in run["violations"]:
            lines.append(f"    VIOLATION: {violation}")
    for cmp in results["comparisons"]:
        lines.append(
            f"p99 under {cmp['scenario']} seed={cmp['seed']}: "
            f"{cmp['p99_control']:.4f}s unmitigated -> "
            f"{cmp['p99_resilient']:.4f}s resilient "
            f"({cmp['p99_improvement']:.0%} better)"
        )
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
        "comparisons": results["comparisons"],
        "violations": [
            violation
            for run in results["runs"]
            for violation in run["violations"]
        ],
    }


# -- pytest entry point -----------------------------------------------------


def test_gray_matrix():
    results = run_experiment(seeds=(1, 2), ops=60)
    failed = [r for r in results["runs"] if not r["passed"]]
    assert not failed, "\n".join(
        f"{r['scenario']} seed={r['seed']} arm={r['arm']}: {r['violations']}"
        for r in failed
    )
    # Every schedule exercised its mechanism on at least one seed.
    by_scenario: dict[str, int] = {}
    for r in results["runs"]:
        if r["arm"] != "resilient":
            continue
        by_scenario[r["scenario"]] = by_scenario.get(r["scenario"], 0) + (
            r["hedges_fired"]
            + r["breaker_trips"]
            + r["admission_sheds"]
            + r["deadline_exceeded"]
        )
    quiet = [name for name, activity in by_scenario.items() if activity == 0]
    assert not quiet, f"gray mechanisms never engaged: {quiet}"
    # The headline: mitigation cuts the limping-replica read tail.
    for cmp in results["comparisons"]:
        assert cmp["p99_improvement"] >= P99_IMPROVEMENT_BAR, (
            f"{cmp['scenario']} seed={cmp['seed']}: p99 improved only "
            f"{cmp['p99_improvement']:.0%} "
            f"({cmp['p99_control']:.4f}s -> {cmp['p99_resilient']:.4f}s)"
        )


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
        choices=sorted(GRAY_SCHEDULES),
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
    short = [
        c for c in results["comparisons"]
        if c["p99_improvement"] < P99_IMPROVEMENT_BAR
    ]
    if short:
        print(f"p99 improvement below {P99_IMPROVEMENT_BAR:.0%} bar: {short}")
        raise SystemExit(1)


if __name__ == "__main__":
    main()
