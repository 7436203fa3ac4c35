"""The chaos harness: one registry of scenarios, one way to run them.

:data:`SCENARIOS` holds every row of every family, keyed
``"family/name"``; :func:`run_scenario` executes one in seven phases
that are the same for all of them:

1. **config** — the row's preset and overrides (or the caller's
   ``config``), optionally with the monitoring plane layered on;
2. **cluster** — 4 nodes, the table on the row's home servers;
3. **seed** — for ``preload`` rows, the one seeding procedure below;
4. **fault** — the plan is armed, the body injects the fault (unless
   this is the clean twin) and the row's workload, if any, runs under it;
5. **settle** — heal partitions, restart whatever is still dead through
   checkpoint+redo recovery, two heartbeats so repair finishes; what is
   left on the DFS that should not be is counted (``split_files_left``,
   ``runs_without_index``);
6. **invariants** — single ownership iff the config has
   ``live_migration``; always the history checker over every read, the
   read-back of every key and, iff ``read_replicas``, a probe of every
   follower.  The config decides, not the family;
7. **epilogue** — counters, and the monitoring plane's alert log.

The run passes iff no invariant reports a violation.  Adding a scenario
is one body function and one row in its family's ``ROWS``; every
parametrised test, the detection matrix and every bench pick it up from
the registry.
"""

from __future__ import annotations

import random
from functools import partial

from repro.chaos import concurrent, gray, migration, recovery, replica, schedules
from repro.chaos.invariants import check_single_owner, probe_followers
from repro.chaos.scenario import (
    GROUP,
    KEY_DOMAIN,
    KEY_WIDTH,
    N_NODES,
    SCHEMA,
    TABLE,
    ChaosReport,
    Run,
    Scenario,
)
from repro.config import LogBaseConfig
from repro.core.database import LogBase
from repro.sim import metrics
from repro.sim.failure import fault_plan
from repro.wal.repository import RUN_INDEX_SUFFIX

SCENARIOS: dict[str, Scenario] = {
    row.key: row
    for family in (schedules, gray, concurrent, migration, recovery, replica)
    for row in family.ROWS
}

#: observation -> the cluster-wide mechanism counter every report
#: carries under that name (zero while the mechanism's gate is off).
COUNTERS = {
    "client_retries": metrics.CLIENT_RETRIES,
    "hedges_fired": metrics.DFS_HEDGE_FIRED,
    "hedge_wins": metrics.DFS_HEDGE_WINS,
    "hedge_losses": metrics.DFS_HEDGE_LOSSES,
    "breaker_trips": metrics.BREAKER_TRIPS,
    "admission_sheds": metrics.ADMISSION_SHED,
    "deadline_exceeded": metrics.DEADLINES_EXCEEDED,
    "groups": metrics.COMMIT_GROUPS,
    "acks_deferred": metrics.COMMIT_ACKS_DEFERRED,
    "adopt_skipped": metrics.RECOVERY_ADOPT_SKIPPED,
    "corrupt_replicas": metrics.DFS_CORRUPT_REPLICAS,
}


def _preload(run: Run) -> None:
    """Seed the cluster with ``ops`` acked writes on fresh keys.

    A checkpoint at the halfway write makes a later recovery run both
    the checkpoint reload and the tail redo; five reads of one key make
    its tablet hot for the hot-first bring-up order; the first heartbeat
    snapshots that heat and places the followers (when the config has
    any), the second proves a steady-state tail pass keeps them caught
    up.  ``run.tablet_id`` becomes the tablet covering the most keys.
    """
    cluster = run.db.cluster
    run.keys = [
        str(v).zfill(KEY_WIDTH).encode()
        for v in run.rng.sample(range(KEY_DOMAIN), run.report.ops)
    ]
    half = len(run.keys) // 2 + 1
    run.write(run.keys[:half])
    cluster.checkpoints[run.scenario.home_servers[0]].write_checkpoint()
    run.write(run.keys[half:])
    for _ in range(5):
        run.client.get_raw(TABLE, run.keys[0], GROUP)
    run.heartbeat()
    run.heartbeat()
    covering = [run.tablet_of(key) for key in run.keys]
    run.tablet_id = max(sorted(set(covering)), key=covering.count)


def _runs_without_index(cluster) -> int:
    """Sorted runs a live server's map names that lack their index file,
    plus run index files whose run is gone: a run and its index are
    installed, and retired, together."""
    dfs = cluster.dfs
    broken = 0
    for server in cluster.servers:
        if not server.machine.alive:
            continue
        log = server.log
        runs = {log.run_index_path(n): n for n in log.segments()}
        broken += sum(
            log.is_sorted_segment(n) and not dfs.exists(path)
            for path, n in runs.items()
        )
        broken += sum(
            path.endswith(RUN_INDEX_SUFFIX) and path not in runs
            for path in dfs.list_files(log.root + "/")
        )
    return broken


def _check_invariants(run: Run) -> None:
    db, report, history = run.db, run.report, run.history
    config = db.cluster.config
    if config.live_migration:
        report.invariants.append("single-owner")
        report.violations.extend(check_single_owner(db))
    report.invariants.append("history")
    verifier = db.client(db.cluster.machines[run.scenario.client_node])
    history.read_back(lambda key: verifier.get_raw(TABLE, key, GROUP))
    if config.read_replicas:
        probe_followers(run)
    report.violations.extend(history.check(serializable=db.txn_manager.serializable))
    run.observe(**history.summary)


def run_scenario(
    name: str,
    *,
    seed: int = 1,
    ops: int | None = None,
    monitoring: bool = False,
    config: LogBaseConfig | None = None,
    faults: bool = True,
) -> ChaosReport:
    """Execute one registry row and check the contracts its config arms.

    Args:
        name: key into :data:`SCENARIOS` (``"family/name"``).
        seed: workload RNG seed (the fault schedule itself is fixed; the
            seed varies which keys and operations the faults land on).
        ops: workload size; None takes the row's own.
        monitoring: layer the monitoring plane on the row's config; the
            report then carries the alert log, the flight recorder's
            post-mortems and the fault times.
        config: run under this config instead of the row's (a control
            arm such as :func:`repro.chaos.gray.control_config`, or a
            traced cluster); ``monitoring`` is then the config's call.
        faults: False runs the clean twin — same config, seeding and
            workload, the body never runs — which the detection oracle
            requires to stay silent.

    Raises:
        KeyError: unknown scenario name.
    """
    scenario = SCENARIOS[name]
    if config is None:
        config = scenario.config(monitoring=monitoring)
    db = LogBase(n_nodes=N_NODES, config=config, n_masters=scenario.masters)
    cluster = db.cluster
    if scenario.auto_failover:
        cluster.master.enable_auto_failover()
    db.create_table(
        SCHEMA, tablets_per_server=2, only_servers=list(scenario.home_servers)
    )
    report = ChaosReport(
        family=scenario.family,
        scenario=scenario.name,
        seed=seed,
        ops=scenario.ops if ops is None else ops,
    )
    run = Run(
        scenario=scenario,
        db=db,
        report=report,
        rng=random.Random(seed),
        client=db.client(cluster.machines[scenario.client_node]),
    )
    if scenario.preload:
        _preload(run)

    with fault_plan(run.plan, cluster.failures):
        events = (scenario.body(run) if faults else None) or {}
        if scenario.workload is not None:
            scenario.workload(run, events)

    config.network.partitions.heal()
    for dead in list(cluster.failures.killed):
        cluster.restart_server(dead)
        report.restarted_servers.append(dead)
    for _ in range(2):
        run.heartbeat()
    # Failover stages split files and deletes them; nothing else may.
    run.observe(
        split_files_left=len(cluster.dfs.list_files("/logbase/splits/")),
        runs_without_index=_runs_without_index(cluster),
    )

    _check_invariants(run)

    counts = run.history.counts()
    report.acked = counts["acked"]
    report.aborted = counts["aborted"]
    report.indeterminate = counts["indeterminate"]
    report.keys_checked = len(run.history.keys)
    report.faults_fired = len(run.plan.fired)
    report.under_replicated_after = len(cluster.dfs.namenode.under_replicated)
    totals = cluster.total_counters()
    run.observe(**{k: int(totals.get(c, 0)) for k, c in COUNTERS.items()})
    monitor = cluster.monitor
    if monitor is not None:
        report.alerts = monitor.alert_log()
        report.postmortems = monitor.postmortem_dicts()
        report.fault_times = monitor.fault_times()
    return report


def matrix(
    family: str, seeds: tuple[int, ...] = (1,), ops: int | None = None
) -> list[dict]:
    """Every row of ``family`` (``"all"`` walks the whole registry) at
    every seed, under its own config and under ``production()``, as
    :meth:`ChaosReport.to_dict` rows tagged with ``config`` — the loop
    every bench's chaos matrix is."""
    production = partial(LogBaseConfig.production, segment_size=64 * 1024)
    return [
        {"config": name, **run_scenario(key, seed=seed, ops=ops, config=make()).to_dict()}
        for key, row in SCENARIOS.items()
        if family in ("all", row.family)
        for seed in seeds
        for name, make in (("row", lambda: None), ("production", production))
    ]
