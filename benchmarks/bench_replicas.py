"""Read-replica sweep: scale a read-mostly workload off the shared log.

One tablet server owns every tablet (the paper's single-writer hot spot)
while 0, 1, or 3 log-shipping followers tail its log segments straight
from the replicated DFS and serve bounded-staleness reads.  A YCSB-style
95/5 Zipfian read/write mix over the preloaded keyset runs against each
arm on a fresh cluster; the clients spread reads across the follower
rotation (owner included) and fall back to the owner whenever a replica
lags past its bound.

The workload is open-loop: a pool of client machines *outside* the
cluster issues the operations, so throughput is the cluster's serving
capacity — ops divided by the cluster makespan, which covers every
server machine and therefore charges the follower tail work against the
speedup instead of hiding it.  (A closed loop with one in-cluster client
measures the client's round-trip budget, the same in every arm.)

Reported per arm: simulated throughput, the share of reads the replicas
served, and the replica lag histogram.  The ``replica/`` rows of the
chaos registry (:mod:`repro.chaos.replica`) are not re-run here: tier-1,
the family tests and CI's chaos-smoke step run them.

Appends a run entry to ``BENCH_replicas.json`` at the repo root.

Run directly (``python benchmarks/bench_replicas.py [--smoke]``) or via
pytest, which asserts the acceptance bars: 3-follower throughput at
least 2.5x the owner-only baseline, 100% availability, and every
follower arm serving reads from a replica.
"""

from __future__ import annotations

import argparse
import pathlib
import random

from conftest import append_trajectory
from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.core.schema import ColumnGroup, TableSchema
from repro.errors import LogBaseError
from repro.sim.machine import Machine

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_replicas.json"

TABLE = "reads"
GROUP = "g"
SCHEMA = TableSchema(TABLE, "id", (ColumnGroup(GROUP, ("v",)),))
KEY_WIDTH = 8
KEY_DOMAIN = 100_000
RECORD_SIZE = 200
ZIPF_EXPONENT = 2  # key = domain * u^2: skewed but not single-key
READ_FRACTION = 0.95
N_NODES = 5  # owner + 3 follower slots + a client-side node

FOLLOWER_ARMS = (0, 1, 3)
SIZES = (1200,)
SMOKE_SIZES = (300,)
PRELOAD = 400
SEED = 23
HEARTBEAT_EVERY = 25
N_CLIENTS = 4  # open-loop client pool, on machines outside the cluster


def _config(followers: int) -> LogBaseConfig:
    # The read buffer is disabled to model the paper's disk-resident
    # working sets (1 GB/node against a far smaller cache share): at
    # simulation scale the whole keyset would sit in the default cache
    # and *no* amount of serving capacity — replicas included — would
    # matter.  With it off, every read pays its DFS fetch on whichever
    # machine serves it, which is exactly the cost replicas spread.
    # Full replication keeps each follower tailing its *local* log
    # replica (the LogBase deployment the paper assumes: the log lives in
    # the shared DFS, so scaling reads means placing a replica where the
    # reader runs); with the default 3-way factor the followers without a
    # local copy would funnel through one datanode and bottleneck there.
    return LogBaseConfig.with_read_replicas(
        segment_size=64 * 1024,
        replicas_per_tablet=followers,
        read_cache_enabled=False,
        replication=N_NODES,
    )


def _zipf_key(rng: random.Random) -> bytes:
    return str(int(KEY_DOMAIN * (rng.random() ** ZIPF_EXPONENT))).zfill(
        KEY_WIDTH
    ).encode()


def run_arm(followers: int, ops: int) -> dict:
    config = _config(followers)
    db = LogBase(n_nodes=N_NODES, config=config)
    db.create_table(
        SCHEMA,
        tablets_per_server=1,
        key_domain=KEY_DOMAIN,
        key_width=KEY_WIDTH,
        only_servers=["ts-node-0"],
    )
    clients = [
        db.client(
            Machine(
                f"client-{i}",
                rack="rack-client",
                disk_model=config.disk,
                network=config.network,
            )
        )
        for i in range(N_CLIENTS)
    ]
    rng = random.Random(SEED)
    written: set[bytes] = set()
    for i in range(PRELOAD):
        key = _zipf_key(rng)
        clients[i % N_CLIENTS].put_raw(
            TABLE, key, GROUP, b"%0*d" % (RECORD_SIZE, i)
        )
        written.add(key)
    keyset = sorted(written)
    # Place the followers and let them catch up on the preload before the
    # measured phase starts.
    db.cluster.heartbeat()
    db.cluster.heartbeat()
    db.cluster.reset_clocks()

    attempted = failed = 0
    for i in range(ops):
        if i % HEARTBEAT_EVERY == 0:
            db.cluster.heartbeat()  # lease renewal + follower tail passes
        key = keyset[int(len(keyset) * (rng.random() ** ZIPF_EXPONENT))]
        client = clients[i % N_CLIENTS]
        attempted += 1
        try:
            if rng.random() < READ_FRACTION:
                client.get_raw(TABLE, key, GROUP)
            else:
                client.put_raw(
                    TABLE, key, GROUP, b"%0*d" % (RECORD_SIZE, attempted)
                )
        except LogBaseError:
            failed += 1
    makespan = db.cluster.elapsed_makespan()
    counters = db.cluster.total_counters()
    hist = db.cluster.replica_lag_histogram
    reads = int(attempted * READ_FRACTION)
    replica_served = int(counters.get("replica.reads_served", 0))
    return {
        "followers": followers,
        "ops": ops,
        "preload": PRELOAD,
        "makespan_seconds": makespan,
        "throughput_ops_per_sec": ops / makespan if makespan else 0.0,
        "availability": 1.0 - failed / attempted if attempted else 1.0,
        "ops_failed": failed,
        "replica_reads_served": replica_served,
        "replica_read_share": replica_served / reads if reads else 0.0,
        "replica_redirects": int(counters.get("replica.redirects", 0)),
        "replica_tail_batches": int(counters.get("replica.tail_batches", 0)),
        "replica_lag_p50": hist.percentile(0.50) if hist is not None else 0.0,
        "replica_lag_p99": hist.percentile(0.99) if hist is not None else 0.0,
    }


def run_experiment(sizes=SIZES) -> dict:
    results: dict = {
        "record_size": RECORD_SIZE,
        "zipf_exponent": ZIPF_EXPONENT,
        "read_fraction": READ_FRACTION,
        "curve": [],
    }
    for ops in sizes:
        for followers in FOLLOWER_ARMS:
            results["curve"].append(run_arm(followers, ops))
    return results


def format_report(results: dict) -> str:
    lines = [
        f"Read-replica sweep ({int(results['read_fraction'] * 100)}/"
        f"{100 - int(results['read_fraction'] * 100)} zipf "
        f"u^{results['zipf_exponent']}, {results['record_size']} B records)",
        f"{'followers':>9} {'ops':>5} {'ops/s':>9} {'speedup':>8} "
        f"{'replica share':>13} {'lag p99 s':>10} {'avail':>7}",
    ]
    by_ops: dict[int, dict[int, dict]] = {}
    for point in results["curve"]:
        by_ops.setdefault(point["ops"], {})[point["followers"]] = point
    for ops, arms in by_ops.items():
        base = arms.get(0)
        for followers, point in sorted(arms.items()):
            speedup = (
                point["throughput_ops_per_sec"]
                / base["throughput_ops_per_sec"]
                if base and base["throughput_ops_per_sec"]
                else 0.0
            )
            lines.append(
                f"{followers:>9d} {ops:>5d} "
                f"{point['throughput_ops_per_sec']:>9.1f} {speedup:>7.2f}x "
                f"{point['replica_read_share']:>12.1%} "
                f"{point['replica_lag_p99']:>10.4f} "
                f"{point['availability']:>6.1%}"
            )
    return "\n".join(lines)


def check_acceptance(results: dict) -> list[str]:
    """The acceptance bars; returns a list of violations (empty = pass)."""
    failures = []
    by_ops: dict[int, dict[int, dict]] = {}
    for point in results["curve"]:
        by_ops.setdefault(point["ops"], {})[point["followers"]] = point
        tag = f"followers={point['followers']}/ops={point['ops']}"
        if point["availability"] < 1.0:
            failures.append(
                f"{tag}: availability {point['availability']:.2%} "
                f"({point['ops_failed']} ops failed)"
            )
        if point["followers"] > 0 and point["replica_reads_served"] == 0:
            failures.append(f"{tag}: no read was served by a replica")
    for ops, arms in by_ops.items():
        base = arms.get(0)
        three = arms.get(3)
        if base is None or three is None:
            continue
        speedup = (
            three["throughput_ops_per_sec"] / base["throughput_ops_per_sec"]
            if base["throughput_ops_per_sec"]
            else 0.0
        )
        if speedup < 2.5:
            failures.append(
                f"ops={ops}: 3-follower speedup {speedup:.2f}x below the "
                "2.5x bar"
            )
    return failures


# -- pytest entry point -----------------------------------------------------------


def test_replica_sweep():
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
