"""Seeded interrupted-migration chaos schedules against the durability
oracle and the single-owner invariant: crashes, master failovers, and
partitions mid-handoff must all converge with every acked write readable
and never two servers willing to serve one tablet."""

import pytest

from repro.chaos import run_scenario
from tests.chaos.helpers import names

MIGRATION_SCENARIOS = names("migration")
#: the one row that injects no fault: its hazard is the log itself.
NO_FAULT = "split-then-move"


@pytest.mark.parametrize("scenario", MIGRATION_SCENARIOS)
@pytest.mark.parametrize("seed", [1, 2])
def test_migration_scenario_upholds_the_contract(scenario, seed):
    report = run_scenario(f"migration/{scenario}", seed=seed)
    assert report.passed, report.violations
    if scenario != NO_FAULT:
        assert report.faults_fired >= 1  # the schedule actually struck
    assert report.acked >= report.ops
    assert report.keys_checked >= report.ops


def test_crash_scenarios_fail_the_first_attempt():
    for scenario in ("crash-source-mid-catchup", "crash-target-mid-flip"):
        report = run_scenario(f"migration/{scenario}")
        assert report.observed["first_attempt_failed"]
        # Nothing flipped before the crash, so resume converged back to
        # (or forward past) exactly one owner.
        assert report.observed["resume_outcomes"]
        assert report.observed["final_owner"]


def test_partitioned_owner_is_lease_fenced():
    report = run_scenario("migration/partition-old-owner")
    assert report.passed, report.violations
    # The old owner could not be told about the move; only its lapsed
    # lease stopped it from double-serving.
    assert report.observed["stale_owner_rejected"]
    assert report.observed["final_owner"] == "ts-node-1"


def test_master_failover_promotes_and_converges():
    report = run_scenario("migration/master-failover-mid-migration")
    assert report.passed, report.violations
    assert report.observed["first_attempt_failed"]
    assert report.observed["resume_outcomes"]


def test_child_moved_straight_after_its_split_keeps_the_parents_rows():
    report = run_scenario(f"migration/{NO_FAULT}")
    assert report.passed, report.violations
    assert report.acked == report.keys_checked == report.ops
    assert report.observed["final_owner"] == "ts-node-1"
