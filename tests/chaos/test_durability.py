"""End-to-end chaos runs: every schedule must uphold the durability
contract, and must actually disrupt the cluster while doing so."""

import pytest

from repro.chaos import run_scenario
from repro.config import LogBaseConfig
from tests.chaos.helpers import names

SCHEDULES = names("base")


def test_covers_required_failure_modes():
    # The suite must keep covering the acceptance scenarios: datanode
    # death mid-append, server crash at commit, crashes during checkpoint
    # and compaction, a network partition that heals, and a kill ->
    # revive -> re-adopt cycle.
    assert len(SCHEDULES) >= 5
    for name in (
        "datanode-mid-append",
        "server-crash-at-commit",
        "crash-during-checkpoint",
        "crash-during-compaction",
        "partition-heal",
        "kill-revive-readopt",
    ):
        assert name in SCHEDULES


@pytest.mark.parametrize("scenario", SCHEDULES)
@pytest.mark.parametrize("seed", [1, 2])
def test_schedule_upholds_durability_contract(scenario, seed):
    report = run_scenario(f"base/{scenario}", seed=seed, ops=40)
    assert report.passed, report.violations
    # The run did real work and the schedule really interfered.
    assert report.acked > 0
    assert report.keys_checked > 0
    disruption = (
        report.faults_fired
        + report.rereplicated
        + len(report.expired_servers)
        + len(report.restarted_servers)
    )
    assert disruption > 0, f"{scenario} caused no disruption"


@pytest.mark.parametrize("production", [False, True], ids=["own-config", "production"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_corrupt_local_log_replica_is_read_around(seed, production):
    # Redo, reads and compaction all cross a flipped byte in every local
    # log replica; each re-reads verified instead of stopping at it.
    config = LogBaseConfig.production(segment_size=64 * 1024) if production else None
    report = run_scenario("base/corrupt-replica", seed=seed, config=config)
    assert report.passed, report.violations
    assert report.observed["corrupt_replicas"] >= 1


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        run_scenario("base/no-such-scenario")


def test_report_dict_is_json_shaped():
    report = run_scenario("base/datanode-mid-append", seed=1, ops=20)
    data = report.to_dict()
    assert data["scenario"] == "datanode-mid-append"
    assert data["passed"] is True
    assert isinstance(data["violations"], list)
    assert data["faults_fired"] >= 1  # the mid-append kill fired
