"""End-to-end chaos runs: every schedule must uphold the durability
contract, and must actually disrupt the cluster while doing so."""

import pytest

from repro.chaos import run_scenario
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
