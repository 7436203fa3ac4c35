"""Observability benchmark: where does LogBase's simulated time go?

Runs a YCSB-style put/get/scan mix on a traced cluster
(``LogBaseConfig(tracing=True)``) and holds the trace subsystem to its
acceptance bars: every traced operation's span tree must explain >= 99%
of its end-to-end simulated latency, the per-layer breakdown must sum to
~100% of total latency, and the write path must show the paper's shape —
exactly one sequential log append per put, with the DFS append +
replication pipeline dominating write time (§3.4, §4.2.1).  The retained
traces are exported as Chrome ``trace_event`` JSON to
``benchmarks/results/trace_obs.json`` (loadable in chrome://tracing); a
smoke run (``--smoke``, or pytest) writes its own, untracked, to
``trace_obs.smoke.json`` beside it and appends nothing to ``BENCH_obs.json``.

The tracing-off arm runs the identical workload first: its wall-clock,
together with a microbenchmark of the no-op span gate, bounds the cost
of the disabled gate at under 2% — the price every untraced run (seed
figures included) pays for the instrumentation's existence.

Run directly (``python benchmarks/bench_obs.py [--smoke]``) or via
pytest, which asserts all of the above.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import time
import timeit

from conftest import append_trajectory
from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.core.schema import ColumnGroup, TableSchema
from repro.obs.analyze import coverage, format_time_report, where_did_time_go
from repro.obs.export import export_chrome_trace
from repro.obs.trace import span
from repro.sim.machine import Machine

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_obs.json"
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
TRACE_PATH = RESULTS_DIR / "trace_obs.json"
SMOKE_TRACE_PATH = RESULTS_DIR / "trace_obs.smoke.json"  # untracked

TABLE = "obs"
GROUP = "g"
SCHEMA = TableSchema(TABLE, "id", (ColumnGroup(GROUP, ("v",)),))

DEFAULT_OPS = 240
SMOKE_OPS = 120
PRELOAD = 10
VALUE_BYTES = 1000
KEY_DOMAIN = 2_000_000_000

COVERAGE_BAR = 0.99
PERCENT_SUM_TOLERANCE = 1.0
DISABLED_OVERHEAD_BAR_PCT = 2.0


def _build_db(*, tracing: bool) -> LogBase:
    config = LogBaseConfig(segment_size=256 * 1024, tracing=tracing)
    db = LogBase(n_nodes=3, config=config)
    # The table lives on ts-node-1 while the client runs on node-2, so
    # every operation crosses a real machine boundary.
    db.create_table(SCHEMA, only_servers=["ts-node-1"])
    return db


def _run_workload(db: LogBase, ops: int, seed: int) -> None:
    """Seeded 50/40/10 put/get/scan mix through one remote client."""
    # A dedicated client machine outside the DFS: replication traffic
    # then books against the storage layers, not the client's clock.
    config = db.cluster.config
    client = db.client(
        Machine("client", disk_model=config.disk, network=config.network)
    )
    rng = random.Random(seed)
    value = b"x" * VALUE_BYTES
    keys: list[bytes] = []
    for _ in range(PRELOAD):
        key = b"%012d" % rng.randrange(KEY_DOMAIN)
        client.put_raw(TABLE, key, GROUP, value)
        keys.append(key)
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.5:
            key = b"%012d" % rng.randrange(KEY_DOMAIN)
            client.put_raw(TABLE, key, GROUP, value)
            keys.append(key)
        elif roll < 0.9:
            client.get_raw(TABLE, rng.choice(keys), GROUP)
        else:
            start = rng.choice(keys)
            end = b"%012d" % min(int(start) + KEY_DOMAIN // 40, KEY_DOMAIN)
            client.scan_raw(TABLE, GROUP, start, end)


def _disabled_gate_overhead_pct(db_off: LogBase, span_calls: int, wall_off: float) -> float:
    """Share of the untraced run's wall-clock spent in the no-op span
    gate: (gate checks per run) x (cost of one no-op span() call)."""
    machine = db_off.cluster.machines[0]
    calls = 100_000
    per_call = timeit.timeit(
        lambda: span("log.append", machine), number=calls
    ) / calls
    return 100.0 * (span_calls * per_call) / wall_off if wall_off > 0 else 0.0


def run_experiment(
    ops: int = DEFAULT_OPS, seed: int = 1, trace_path: pathlib.Path = TRACE_PATH
) -> dict:
    # Untraced arm first (its machines have no tracer): the wall-clock
    # baseline every seed benchmark pays.
    started = time.perf_counter()
    db_off = _build_db(tracing=False)
    _run_workload(db_off, ops, seed)
    wall_off = time.perf_counter() - started
    assert db_off.cluster.tracer is None

    started = time.perf_counter()
    db = _build_db(tracing=True)
    _run_workload(db, ops, seed)
    wall_on = time.perf_counter() - started

    tracer = db.cluster.tracer
    roots = tracer.trace_log.traces()
    op_roots = [root for root in roots if root.name.startswith("op.")]
    coverages = [coverage(root) for root in op_roots]
    report = where_did_time_go(roots)

    puts = tracer.trace_log.traces("op.put")
    appends_per_put = sorted({len(root.find("log.append")) for root in puts})
    put_layers = where_did_time_go(puts)["layer_percent"]
    put_dominant = max(put_layers, key=put_layers.get) if put_layers else None

    RESULTS_DIR.mkdir(exist_ok=True)
    chrome_events = export_chrome_trace(tracer, str(trace_path))
    time_report = format_time_report(tracer)

    span_calls = tracer.spans_started
    open_spans = tracer.open_spans
    gate_pct = _disabled_gate_overhead_pct(db_off, span_calls, wall_off)

    return {
        "ops": ops,
        "seed": seed,
        "traces": len(roots),
        "op_traces": len(op_roots),
        "spans": span_calls,
        "open_spans": open_spans,
        "min_coverage": min(coverages) if coverages else 0.0,
        "mean_coverage": report["coverage"],
        "percent_sum": report["percent_sum"],
        "layer_percent": report["layer_percent"],
        "appends_per_put": appends_per_put,
        "put_layer_percent": put_layers,
        "put_dominant_layer": put_dominant,
        "chrome_events": chrome_events,
        "chrome_trace": str(trace_path.relative_to(REPO_ROOT)),
        "wall_off_seconds": wall_off,
        "wall_on_seconds": wall_on,
        "tracing_overhead_pct": (
            100.0 * (wall_on - wall_off) / wall_off if wall_off > 0 else 0.0
        ),
        "disabled_gate_overhead_pct": gate_pct,
        "time_report": time_report,
    }


def check(results: dict) -> list[str]:
    """The acceptance bars; returns a list of failures (empty = pass)."""
    failures = []
    if results["open_spans"] != 0:
        failures.append(f"{results['open_spans']} spans never closed")
    if results["min_coverage"] < COVERAGE_BAR:
        failures.append(
            f"worst op coverage {results['min_coverage']:.4f} "
            f"< {COVERAGE_BAR}: some charged time escaped the span tree"
        )
    if abs(results["percent_sum"] - 100.0) > PERCENT_SUM_TOLERANCE:
        failures.append(
            f"layer percentages sum to {results['percent_sum']:.2f}%, "
            f"not ~100%"
        )
    if results["appends_per_put"] != [1]:
        failures.append(
            f"puts performed {results['appends_per_put']} log appends, "
            f"expected exactly one sequential append each"
        )
    if results["put_dominant_layer"] != "dfs":
        failures.append(
            f"write latency dominated by {results['put_dominant_layer']!r}, "
            f"expected the dfs append+replication pipeline"
        )
    if results["chrome_events"] <= 0:
        failures.append("chrome trace export produced no events")
    if results["disabled_gate_overhead_pct"] >= DISABLED_OVERHEAD_BAR_PCT:
        failures.append(
            f"disabled-gate overhead "
            f"{results['disabled_gate_overhead_pct']:.2f}% >= "
            f"{DISABLED_OVERHEAD_BAR_PCT}% of the untraced run"
        )
    return failures


def format_report(results: dict) -> str:
    lines = [
        f"Observability suite ({results['ops']} ops, seed {results['seed']}): "
        f"{results['traces']} traces, {results['spans']} spans",
        "",
        results["time_report"],
        "",
        f"coverage: min {results['min_coverage']:.4f}, "
        f"mean {results['mean_coverage']:.4f} (bar {COVERAGE_BAR})",
        f"layer percent sum: {results['percent_sum']:.2f}%",
        f"write path: {results['appends_per_put']} log append(s)/put, "
        f"dominated by {results['put_dominant_layer']} "
        f"({results['put_layer_percent'].get('dfs', 0.0):.1f}% of put latency)",
        f"chrome trace: {results['chrome_events']} events -> "
        f"{results['chrome_trace']}",
        f"wall-clock: {results['wall_off_seconds']:.2f}s untraced, "
        f"{results['wall_on_seconds']:.2f}s traced "
        f"({results['tracing_overhead_pct']:+.1f}%)",
        f"disabled-gate overhead: "
        f"{results['disabled_gate_overhead_pct']:.3f}% of the untraced run "
        f"(bar {DISABLED_OVERHEAD_BAR_PCT}%)",
    ]
    return "\n".join(lines)


def trajectory_entry(results: dict) -> dict:
    return {key: value for key, value in results.items() if key != "time_report"}


# -- pytest entry point -----------------------------------------------------


def test_obs_suite():
    results = run_experiment(ops=SMOKE_OPS, trace_path=SMOKE_TRACE_PATH)
    failures = check(results)
    assert not failures, "\n".join(failures)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="smaller workload for CI smoke runs"
    )
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ops = args.ops if args.ops is not None else (SMOKE_OPS if args.smoke else DEFAULT_OPS)
    trace_path = SMOKE_TRACE_PATH if args.smoke else TRACE_PATH
    results = run_experiment(ops=ops, seed=args.seed, trace_path=trace_path)
    print(format_report(results))
    if not args.smoke:
        append_trajectory(TRAJECTORY, trajectory_entry(results))
        print(f"\ntrajectory appended to {TRAJECTORY}")
    failures = check(results)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        raise SystemExit(1)


if __name__ == "__main__":
    main()
