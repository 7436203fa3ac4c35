"""The end-to-end benchmark's command line.

One run (the form the benchmark contract drives)::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

prints every metric by name with unit and clock, checks the outputs, and
ends with one JSON object on the last line of stdout.  ``--trace 0``
measures the end-to-end metrics with no wrapper installed; ``--trace 1``
re-runs the first ``min(N, 20000)`` timed ops with ``layers.py`` wrapping
each layer and reports the per-layer metrics.

The full suite (each workload in fresh interpreters, 3 repeats, the
determinism self-check, optionally the traced run)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--smoke] [--trace]

and ``python3 benchmarks/e2e/run.py compare old.json new.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import driver  # noqa: E402  (needs src/ on the path)
from compare import compare_files  # noqa: E402
from layers import PER_LAYER, LayerTracer, layer_metrics  # noqa: E402
from metrics import END_TO_END, format_metric  # noqa: E402
from workloads import OP_CLASSES, WORKLOADS  # noqa: E402

RESULTS = HERE / "results"
SETUPS = 3  # set-up repeats per run; setup_s is their median
REPEATS = 3  # fresh-interpreter repeats per workload in the suite
TRACED_OPS = 20_000
DISTURBED = 0.9  # a repeat with process_time/perf_counter below this is re-run once


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one run ------------------------------------------------------------------


def _set_up(workload, args) -> tuple[driver.Bench, float]:
    began = time.perf_counter()
    bench = driver.set_up(workload, args.seed, args.seconds, smoke=args.smoke)
    return bench, time.perf_counter() - began


def run_end_to_end(workload, args) -> dict:
    """Set up ``SETUPS`` times (keeping the last), run the timed phase
    with no wrapper installed, read the model back."""
    setup_seconds = []
    bench = None
    for _ in range(SETUPS):
        del bench
        gc.collect()
        bench, seconds = _set_up(workload, args)
        setup_seconds.append(seconds)
    phase = driver.timed_phase(bench)
    lost = driver.read_back(bench)
    return _result(bench, phase, lost, driver.end_to_end_metrics(
        phase, statistics.median(setup_seconds)
    ))


def run_traced(workload, args) -> dict:
    """The same ops twice on fresh clusters: untraced for the reference
    host time, then with every layer wrapped."""
    bench, _ = _set_up(workload, args)
    limit = min(len(bench.ops), TRACED_OPS)
    untraced = driver.timed_phase(bench, limit=limit)
    del bench
    gc.collect()
    bench, _ = _set_up(workload, args)
    tracer = bench.tracer = LayerTracer()
    with tracer.installed():
        phase = driver.timed_phase(bench, limit=limit)
    bench.tracer = None
    lost = driver.read_back(bench)
    if phase.counters != untraced.counters:
        raise SystemExit("traced and untraced runs of the same ops diverged")
    metrics = layer_metrics(tracer, bench, phase, untraced.host_seconds)
    layers = tracer.by_layer()
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace_{workload.name}.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "ops": limit,
        "traced_host_s": phase.host_seconds,
        "untraced_host_s": untraced.host_seconds,
        "layers": layers,
        "per_layer": metrics,
        "slowest_ops": tracer.slowest_ops(),
    }, indent=1))
    result = _result(bench, phase, lost, metrics)
    result["layers"] = layers
    return result


def _result(bench, phase, lost: int, metrics: dict[str, float]) -> dict:
    stats = phase.stats
    return {
        "workload": bench.workload.name,
        "correct": lost == 0 and stats.bad_scans == 0,
        "attempted": phase.attempted,
        "failed": len(stats.failed_ops),
        "lost_acked_writes": lost,
        "bad_scans": stats.bad_scans,
        "lease_lapses": stats.lease_lapses,
        "errors": {f"{kind}:{exc}": n for (kind, exc), n in sorted(stats.errors.items())},
        "samples": {kind: len(stats.latencies[kind]) for kind in OP_CLASSES},
        "host_seconds": phase.host_seconds,
        "sim_seconds": phase.sim_seconds,
        "cpu_wall_ratio": phase.cpu_seconds / phase.host_seconds,
        "metrics": metrics,
        "counters": phase.counters,
    }


def report(result: dict, traced: bool) -> None:
    """Every metric by name, with unit and clock, then the checks."""
    print(f"workload {result['workload']}: {result['attempted']} ops attempted, "
          f"timed phase {result['host_seconds']:.3f} s host / {result['sim_seconds']:.6f} s sim")
    for name, value in result["metrics"].items():
        if traced:
            unit = PER_LAYER[name][0]
            clock = "sim" if name.startswith("sim.") or ".sim_" in name else "host"
            print(format_metric(name, value, unit, clock))
        else:
            unit, clock, _ = END_TO_END[name]
            print(format_metric(name, value, unit, clock, result["samples"]))
    if traced:
        total = 1000.0 * result["host_seconds"]
        wrapped = sum(layer["host_self_ms"] for layer in result["layers"].values())
        print(f"  layer self-times sum to {wrapped:.1f} ms of the traced phase's {total:.1f} ms "
              f"({wrapped / total:.1%}); the rest is the driver and unwrapped code it calls")
    for label, n in result["errors"].items():
        print(f"  first-attempt failure {label}: {n}")
    if result["lease_lapses"]:
        blame = "around the injected faults" if WORKLOADS[result["workload"]].faults else \
            "WITHOUT ANY INJECTED FAULT (the liveness bug)"
        print(f"  TabletMigratingError ... ownership lease ... lapsed on "
              f"{result['lease_lapses']} ops {blame}")
    print(f"  lost_acked_writes={result['lost_acked_writes']} bad_scans={result['bad_scans']} "
          f"failed={result['failed']} correct={result['correct']}")


def single_run(args) -> int:
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    result = run_traced(workload, args) if traced else run_end_to_end(workload, args)
    report(result, traced)
    if args.detail:
        pathlib.Path(args.detail).write_text(json.dumps(result))
    if traced:
        names = list(PER_LAYER)
        units = {name: PER_LAYER[name][0] for name in names}
    else:
        names = [metric["name"] for metric in contract()["end_to_end"]]
        units = {name: END_TO_END[name][0] for name in names}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": units[name]} for name in names
        },
    }))
    return 0 if result["correct"] else 1


# -- the suite ------------------------------------------------------------------


def _child(args, name: str, trace: int, detail: pathlib.Path) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--detail", str(detail),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name}: run failed with exit code {done.returncode}")
    result = json.loads(detail.read_text())
    detail.unlink()
    return result


def _first_difference(runs: list[dict]) -> str | None:
    """Name of the first ``sim_*`` metric or program counter that differs
    between repeats of one workload, or None."""
    first = runs[0]
    for other in runs[1:]:
        for name in sorted(set(first["metrics"]) | set(other["metrics"])):
            if name.startswith("sim_") or name == "failed_op_ratio":
                if first["metrics"].get(name) != other["metrics"].get(name):
                    return name
        for name in sorted(set(first["counters"]) | set(other["counters"])):
            if first["counters"].get(name) != other["counters"].get(name):
                return f"counter {name}"
    return None


def suite(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    repeats = 1 if args.smoke else REPEATS
    RESULTS.mkdir(exist_ok=True)
    out = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    for name in names:
        runs = []
        for repeat in range(repeats):
            detail = RESULTS / f".detail_{name}_{repeat}.json"
            run = _child(args, name, 0, detail)
            if run["cpu_wall_ratio"] < DISTURBED:
                print(f"{name} repeat {repeat}: cpu/wall {run['cpu_wall_ratio']:.2f}, re-running once")
                run = _child(args, name, 0, detail)
            runs.append(run)
        differs = _first_difference(runs)
        if differs is not None:
            raise SystemExit(f"{name}: repeats of one seed differ, first in {differs}")
        entry = {
            "attempted": runs[0]["attempted"],
            "failed": runs[0]["failed"],
            "errors": runs[0]["errors"],
            "samples": runs[0]["samples"],
            "counters": runs[0]["counters"],
            "end_to_end": {},
        }
        print(f"{name}: {entry['attempted']} ops, {repeats} repeat(s), "
              f"lost_acked_writes={runs[0]['lost_acked_writes']}, failed={entry['failed']}")
        for metric, (unit, clock, _) in END_TO_END.items():
            values = [run["metrics"][metric] for run in runs if metric in run["metrics"]]
            if not values:
                continue
            entry["end_to_end"][metric] = {
                "value": statistics.median(values), "values": values,
                "unit": unit, "clock": clock,
            }
            print(format_metric(metric, statistics.median(values), unit, clock, entry["samples"]))
        for label, n in entry["errors"].items():
            print(f"  first-attempt failure {label}: {n}")
        if args.trace:
            traced = _child(args, name, 1, RESULTS / f".detail_{name}_trace.json")
            entry["per_layer"] = traced["metrics"]
            entry["layers"] = traced["layers"]
            top = sorted(traced["layers"].items(), key=lambda kv: -kv[1]["host_self_ms"])[:5]
            for layer, agg in top:
                print(format_metric(f"{layer}.host_self_ms", agg["host_self_ms"], "ms", "host"))
        out["workloads"][name] = entry
    target = pathlib.Path(args.out) if args.out else RESULTS / "latest.json"
    target.write_text(json.dumps(out, indent=1))
    print(f"wrote {target}")
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare <old.json> <new.json>")
        return compare_files(argv[1], argv[2], contract())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="size of the timed phase; with --workload, runs once in this process")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="1/20 sizes, 1 repeat")
    parser.add_argument("--detail", help="also write the run's full result to this file")
    parser.add_argument("--out", help="suite result file (default results/latest.json)")
    args = parser.parse_args(argv)
    if args.workload and args.seconds is not None:
        return single_run(args)
    if args.seconds is None:
        args.seconds = float(contract()["run_seconds"])
    return suite(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
