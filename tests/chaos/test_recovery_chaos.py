"""Seeded crash-during-recovery chaos schedules against the durability
oracle: crashes mid-redo, mid-split, and mid-adoption must all converge
on retry with every acked write readable."""

import pytest

from repro.chaos import run_scenario
from tests.chaos.helpers import names

RECOVERY_SCENARIOS = names("recovery")


@pytest.mark.parametrize("scenario", RECOVERY_SCENARIOS)
@pytest.mark.parametrize("seed", [1, 2])
def test_recovery_scenario_upholds_durability(scenario, seed):
    report = run_scenario(f"recovery/{scenario}", seed=seed)
    assert report.passed, report.violations
    if scenario.startswith("crash-during-"):
        assert report.faults_fired >= 1  # the schedule actually struck
        assert report.observed["first_attempt_failed"]  # ... and mid-procedure
    assert report.acked == report.ops
    assert report.keys_checked == report.ops


def test_crash_during_adoption_dedupes_the_replay():
    report = run_scenario("recovery/crash-during-adoption")
    assert report.passed, report.violations
    # The first (killed) adoption durably re-homed some records; the
    # retried adoption must skip exactly those instead of double-appending.
    assert report.observed["adopt_skipped"] >= 1
    assert report.observed["fence_epoch"] == 2  # one fresh epoch per failover attempt


def test_crash_during_split_refences():
    report = run_scenario("recovery/crash-during-split")
    assert report.passed, report.violations
    assert report.observed["fence_epoch"] == 2


def test_failover_after_split_adopts_the_children():
    report = run_scenario("recovery/failover-after-split")
    assert report.passed, report.violations
    # The master noticed the death by itself and the dead owner came
    # back empty-handed: every tablet it had now lives elsewhere.
    assert report.expired_servers == ["ts-node-0"]
    assert report.restarted_servers == ["ts-node-0"]
    assert "single-owner" in report.invariants  # splitting needs the gate


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        run_scenario("recovery/crash-during-lunch")


def test_report_round_trips_to_dict():
    report = run_scenario("recovery/crash-during-recovery")
    payload = report.to_dict()
    assert payload["scenario"] == "crash-during-recovery"
    assert payload["passed"] is True
    assert payload["violations"] == []
    assert payload["acked"] == payload["ops"] == payload["keys_checked"]
