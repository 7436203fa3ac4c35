"""Elasticity sweep: live migration under a skewed workload.

Two elastic events run against a Zipfian write/read mix on fresh
clusters, with client operations interleaved between every migration
phase (prepare / catch-up / flip) so writes keep landing on the source
mid-handoff and become the flip delta:

* **add-node** — a server joins mid-workload and the hottest tablets
  migrate onto it live;
* **drain-node** — a server is emptied live (every tablet migrated away)
  and retired.

For each event the sweep reports the flip windows (the only
client-visible unavailability: p50/p99 from the ``latency.migration.flip``
histogram), the delta records replayed inside those windows, and
availability — the fraction of interleaved client operations that
succeeded (retries included; the retryable ``TabletMigratingError`` plus
route-cache invalidation must make that 100%).  A final pass re-reads
every written key.  The ``migration/`` rows of the chaos registry
(:mod:`repro.chaos.migration`) run alongside and must be green.

Appends a run entry to ``BENCH_migration.json`` at the repo root.

Run directly (``python benchmarks/bench_migration.py [--smoke]``) or via
pytest, which asserts the acceptance bars: flip p99 within the
``FLIP_BUDGET_SECONDS`` bound, 100% availability, zero lost
writes, and a green chaos matrix.
"""

from __future__ import annotations

import argparse
import pathlib
import random

from conftest import append_trajectory
from repro.chaos import matrix
from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.core.migration import FLIP_BUDGET_SECONDS
from repro.core.schema import ColumnGroup, TableSchema
from repro.errors import LogBaseError

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_migration.json"

TABLE = "elastic"
GROUP = "g"
SCHEMA = TableSchema(TABLE, "id", (ColumnGroup(GROUP, ("v",)),))
KEY_WIDTH = 8
KEY_DOMAIN = 100_000
RECORD_SIZE = 200
ZIPF_EXPONENT = 3  # key = domain * u^3: ~89% of traffic in the first tablet

SIZES = (400, 800)
SMOKE_SIZES = (160,)
SEED = 11
OPS_PER_PHASE = 12  # client ops interleaved between migration phases


def _config() -> LogBaseConfig:
    return LogBaseConfig.with_live_migration(segment_size=32 * 1024)


def _zipf_key(rng: random.Random) -> bytes:
    return str(int(KEY_DOMAIN * (rng.random() ** ZIPF_EXPONENT))).zfill(
        KEY_WIDTH
    ).encode()


class _Workload:
    """A seeded Zipfian write/read mix with availability accounting.

    Ticks the cluster heartbeat every ``HEARTBEAT_EVERY`` operations —
    the continuous background pass a real deployment runs, and the
    mechanism that renews ownership leases (a lease TTL is a few
    heartbeat periods; without the ticks every lease in the cluster
    would lapse and fence its owner)."""

    HEARTBEAT_EVERY = 20

    def __init__(self, db: LogBase, rng: random.Random) -> None:
        self.db = db
        self.client = db.client(db.cluster.machines[0])
        self.rng = rng
        self.written: dict[bytes, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, ops: int) -> None:
        for _ in range(ops):
            if self.attempted % self.HEARTBEAT_EVERY == 0:
                self.db.cluster.heartbeat()
            key = _zipf_key(self.rng)
            self.attempted += 1
            try:
                if self.written and self.rng.random() < 0.3:
                    self.client.get_raw(TABLE, key, GROUP)
                else:
                    value = b"%08d" % self.rng.randrange(10**8)
                    self.client.put_raw(TABLE, key, GROUP, value)
                    self.written[key] = value
            except LogBaseError:
                self.failed = self.failed + 1

    @property
    def availability(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 1.0


def _interleaved_migrate(db: LogBase, workload: _Workload, tablet_id, target):
    """One live migration with client ops running between its phases."""
    steps, ctx = db.cluster.migrator.phases(tablet_id, target)
    for _name, step in steps:
        workload.run(OPS_PER_PHASE)
        step()
    workload.run(OPS_PER_PHASE)
    return ctx["report"]


def _hot_tablets(db: LogBase, server: str) -> list[str]:
    """The server's tablets, hottest first (master-side heat snapshot)."""
    db.cluster.heartbeat()
    heat = db.cluster.tablet_heat
    assignments = db.cluster.master.catalog.assignments
    owned = [t for t, owner in assignments.items() if owner == server]
    return sorted(owned, key=lambda t: heat.get(t, 0.0), reverse=True)


def run_arm(ops: int, *, event: str) -> dict:
    db = LogBase(n_nodes=3, config=_config())
    db.create_table(
        SCHEMA, tablets_per_server=2, key_domain=KEY_DOMAIN, key_width=KEY_WIDTH
    )
    rng = random.Random(SEED)
    workload = _Workload(db, rng)
    workload.run(ops)

    migrations = []
    if event == "add-node":
        new_server = db.cluster.add_node(rebalance=False)
        # Move the two hottest tablets onto the fresh server, live.
        db.cluster.heartbeat()
        heat_order = sorted(
            db.cluster.master.catalog.assignments,
            key=lambda t: db.cluster.tablet_heat.get(t, 0.0),
            reverse=True,
        )
        for tablet_id in heat_order[:2]:
            migrations.append(
                _interleaved_migrate(db, workload, tablet_id, new_server.name)
            )
    elif event == "drain-node":
        victim = "ts-node-0"
        others = [s.name for s in db.cluster.servers if s.name != victim]
        for i, tablet_id in enumerate(_hot_tablets(db, victim)):
            migrations.append(
                _interleaved_migrate(
                    db, workload, tablet_id, others[i % len(others)]
                )
            )
        db.cluster.server_by_name(victim).serving = False
    else:
        raise ValueError(event)

    workload.run(ops // 4)  # post-event traffic on the new topology
    hist = db.cluster.migrator.flip_histogram
    lost = 0
    verifier = db.client(db.cluster.machines[1])
    for i, (key, value) in enumerate(workload.written.items()):
        if i % _Workload.HEARTBEAT_EVERY == 0:
            db.cluster.heartbeat()  # keep leases renewed while verifying
        if verifier.get_raw(TABLE, key, GROUP) != value:
            lost += 1
    return {
        "event": event,
        "ops": ops,
        "migrations": len(migrations),
        "records_caught_up": sum(m.records_caught_up for m in migrations),
        "delta_records": sum(m.delta_records for m in migrations),
        "flip_p50_seconds": hist.percentile(0.50),
        "flip_p99_seconds": hist.percentile(0.99),
        "flip_budget_seconds": FLIP_BUDGET_SECONDS,
        "ops_attempted": workload.attempted,
        "ops_failed": workload.failed,
        "availability": workload.availability,
        "keys_written": len(workload.written),
        "keys_lost": lost,
        "client_retries": int(
            db.cluster.total_counters().get("client.retries", 0)
        ),
    }


#: what the trajectory keeps of each chaos run.
CHAOS_FIELDS = ("scenario", "passed", "violations", "faults_fired")


def run_experiment(sizes=SIZES) -> dict:
    results: dict = {
        "record_size": RECORD_SIZE,
        "zipf_exponent": ZIPF_EXPONENT,
        "curve": [],
        "chaos_matrix": [
            {name: run[name] for name in CHAOS_FIELDS}
            for run in matrix("migration")
        ],
    }
    for ops in sizes:
        for event in ("add-node", "drain-node"):
            results["curve"].append(run_arm(ops, event=event))
    return results


def format_report(results: dict) -> str:
    lines = [
        f"Elasticity sweep (zipf u^{results['zipf_exponent']}, "
        f"{results['record_size']} B records)",
        f"{'event':>12} {'ops':>5} {'migs':>5} {'delta':>6} "
        f"{'flip p99 s':>11} {'avail':>7} {'lost':>5}",
    ]
    for point in results["curve"]:
        lines.append(
            f"{point['event']:>12} {point['ops']:>5d} "
            f"{point['migrations']:>5d} {point['delta_records']:>6d} "
            f"{point['flip_p99_seconds']:>11.4f} "
            f"{point['availability']:>6.1%} {point['keys_lost']:>5d}"
        )
    chaos_ok = sum(1 for c in results["chaos_matrix"] if c["passed"])
    lines.append(
        f"chaos matrix: {chaos_ok}/{len(results['chaos_matrix'])} scenarios green"
    )
    return "\n".join(lines)


def check_acceptance(results: dict) -> list[str]:
    """The acceptance bars; returns a list of violations (empty = pass)."""
    failures = []
    for point in results["curve"]:
        tag = f"{point['event']}/ops={point['ops']}"
        if point["migrations"] < 1:
            failures.append(f"{tag}: no live migration ran")
        if point["flip_p99_seconds"] > point["flip_budget_seconds"]:
            failures.append(
                f"{tag}: flip p99 {point['flip_p99_seconds']:.4f}s over the "
                f"{point['flip_budget_seconds']:.1f}s budget"
            )
        if point["availability"] < 1.0:
            failures.append(
                f"{tag}: availability {point['availability']:.2%} "
                f"({point['ops_failed']} of {point['ops_attempted']} ops failed)"
            )
        if point["keys_lost"]:
            failures.append(f"{tag}: {point['keys_lost']} acked writes lost")
    for entry in results["chaos_matrix"]:
        if not entry["passed"]:
            failures.append(
                f"chaos {entry['scenario']}: {'; '.join(entry['violations'])}"
            )
    return failures


# -- pytest entry point -----------------------------------------------------------


def test_migration_sweep():
    results = run_experiment(sizes=SMOKE_SIZES)
    failures = check_acceptance(results)
    assert not failures, "; ".join(failures)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes for CI smoke runs"
    )
    args = parser.parse_args()
    sizes = SMOKE_SIZES if args.smoke else SIZES
    results = run_experiment(sizes=sizes)
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
