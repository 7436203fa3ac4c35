"""``run.py compare old.json new.json``: two suite results, metric by metric.

``sim_*`` metrics and ``failed_op_ratio`` repeat exactly for a seed, so
they are compared exactly (``failed_op_ratio`` may rise by 0.001
absolute).  ``host_*`` and ``setup_s`` use the bound BENCHMARK.json fixes
for them; where the repeats of either side spread wider than that bound
the verdict is ``unresolved``, not ``unchanged``.
"""

from __future__ import annotations

import json
import statistics

from metrics import END_TO_END

FAILED_RATIO_SLACK = 0.001
UNGATED_HOST_BOUND = 0.25  # host metrics BENCHMARK.json does not gate (raw host_ops_per_s)


def _spread(values: list[float]) -> float:
    """Range of the repeats as a share of their median."""
    median = statistics.median(values)
    return (max(values) - min(values)) / median if median else 0.0


def verdict(name: str, old: dict, new: dict, bounds: dict[str, float]) -> str:
    better = END_TO_END[name][2]
    worse_by = (new["value"] - old["value"]) * (1 if better == "lower" else -1)
    if name == "failed_op_ratio":
        return "regressed" if worse_by > FAILED_RATIO_SLACK else "unchanged"
    if END_TO_END[name][1] == "sim":
        if worse_by == 0:
            return "unchanged"
        return "regressed" if worse_by > 0 else "improved"
    bound = bounds.get(name, UNGATED_HOST_BOUND)
    if max(_spread(old["values"]), _spread(new["values"])) > bound:
        return "unresolved"
    share = worse_by / old["value"]
    if share > bound:
        return "regressed"
    return "improved" if share < -bound else "unchanged"


def compare_files(old_path: str, new_path: str, contract: dict) -> int:
    """Print the table; exit code 1 if anything regressed or is unresolved."""
    with open(old_path) as handle:
        old = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
    bad = 0
    print(f"{'workload':<20} {'metric':<22} {'old':>14} {'new':>14}  new/old   verdict")
    for workload in old["workloads"]:
        if workload not in new["workloads"]:
            continue
        before = old["workloads"][workload]["end_to_end"]
        after = new["workloads"][workload]["end_to_end"]
        for name in END_TO_END:
            if name not in before or name not in after:
                continue
            a, b = before[name], after[name]
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            result = verdict(name, a, b, bounds)
            bad += result in ("regressed", "unresolved")
            print(f"{workload:<20} {name:<22} {a['value']:>14.6g} {b['value']:>14.6g}  "
                  f"{ratio:>6.3f}x of {a['value']:.6g}  {result}")
        old_counters = old["workloads"][workload]["counters"]
        new_counters = new["workloads"][workload]["counters"]
        moved = sorted(
            name for name in set(old_counters) | set(new_counters)
            if old_counters.get(name) != new_counters.get(name)
        )
        if moved:
            print(f"{workload:<20} program counters that differ: {', '.join(moved)}")
    return 1 if bad else 0
