"""PR 19's identity check: the chaos registry against the six runners it replaced.

Usage (from the repo root; the parent commit is 1f4d1d2)::

    mkdir /tmp/parent && git archive 1f4d1d2 | tar -x -C /tmp/parent
    PYTHONPATH=src python benchmarks/identity_pr19.py /tmp/parent

Runs every pre-existing scenario through the parent's runners (in a
subprocess on the parent's tree) and through ``run_scenario`` here, and
prints every field of the parent's ``to_dict()`` that does not reappear
with the identical value: base 6 x seeds 1-5 x 60 ops (and seeds 1-2 x
40 ops, the tier-1 size), gray 5 x seeds 1-3 x both arms plus the
monitored arm at seed 1, group-commit's three schedules x seeds 1-3, and
migration / recovery / replica x seeds 1-3.  For the op-indexed families
(base, gray, group-commit) a difference is a failure (``DIFF``); for the
seeded families, whose three seeding procedures became one, numbers may
move and are listed (``moved``).  Exit status 1 on any ``DIFF``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

OLD_SIDE = r'''
import json, sys
from repro.chaos import (SCHEDULES, GRAY_SCHEDULES, MIGRATION_SCENARIOS,
    RECOVERY_SCENARIOS, REPLICA_SCENARIOS, run_chaos, run_gray,
    run_migration_chaos, run_recovery_chaos, run_replica_chaos)
from repro.chaos.concurrent import run_group_commit_chaos
from repro.sim.failure import CP_DFS_APPEND, CP_LOG_APPEND

out = {}
for name in SCHEDULES:
    for seed in range(1, 6):
        out[f"base/{name}@{seed}"] = run_chaos(name, seed=seed, ops=60).to_dict()
    for seed in (1, 2):
        out[f"base/{name}@{seed}/ops40"] = run_chaos(name, seed=seed, ops=40).to_dict()
for name in GRAY_SCHEDULES:
    for seed in range(1, 4):
        out[f"gray/{name}@{seed}"] = run_gray(name, seed=seed, ops=60).to_dict()
        out[f"gray/{name}@{seed}/control"] = run_gray(
            name, seed=seed, ops=60, resilience=False).to_dict()
    out[f"gray/{name}@1/monitored"] = run_gray(
        name, seed=1, ops=60, monitoring=True).to_dict()
for name, point, hits in (("log-append-early", CP_LOG_APPEND, 5),
                          ("log-append-late", CP_LOG_APPEND, 9),
                          ("dfs-append", CP_DFS_APPEND, 7)):
    for seed in (1, 2, 3):
        out[f"group-commit/{name}@{seed}"] = run_group_commit_chaos(
            seed=seed, crash_point_name=point, crash_after_hits=hits).to_dict()
for family, registry, runner in (
        ("migration", MIGRATION_SCENARIOS, run_migration_chaos),
        ("recovery", RECOVERY_SCENARIOS, run_recovery_chaos),
        ("replica", REPLICA_SCENARIOS, run_replica_chaos)):
    for name in registry:
        for seed in (1, 2, 3):
            out[f"{family}/{name}@{seed}"] = runner(name, seed=seed).to_dict()
json.dump(out, sys.stdout, default=str)
'''

OP_INDEXED = ("base/", "gray/", "group-commit/")


def new_side(keys: list[str]) -> dict:
    from repro.chaos import run_scenario
    from repro.chaos.gray import control_config

    out = {}
    for key in keys:
        name, _, rest = key.partition("@")
        seed, _, arm = rest.partition("/")
        settings: dict = {"seed": int(seed)}
        if not name.startswith("group-commit/"):
            settings["ops"] = 40 if arm == "ops40" or not name.startswith(OP_INDEXED) else 60
        if arm == "control":
            settings["config"] = control_config()
        settings["monitoring"] = arm == "monitored"
        out[key] = run_scenario(name, **settings).to_dict()
    # Through JSON like the old side, so tuples and floats compare equal.
    return json.loads(json.dumps(out, default=str))


def main() -> None:
    parent = sys.argv[1]
    old = json.loads(
        subprocess.run(
            [sys.executable, "-c", OLD_SIDE],
            env={**os.environ, "PYTHONPATH": os.path.join(parent, "src")},
            cwd=parent, check=True, capture_output=True, text=True,
        ).stdout
    )
    new = new_side(list(old))
    failures = 0
    for key, was in old.items():
        strict = key.startswith(OP_INDEXED)
        for field, value in was.items():
            if field == "staleness_violations":  # folded into violations
                now = [v for v in new[key]["violations"] if v.startswith("staleness")]
            else:
                now = new[key].get(field, "<absent>")
            if now != value:
                failures += strict
                print("DIFF " if strict else "moved", key, field, value, "->", now)
    print(f"{len(old)} runs compared; op-indexed differences: {failures}")
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
