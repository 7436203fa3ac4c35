"""Seeded replica chaos schedules against the history checker: lagging
followers, follower crashes, and ownership migrations must never let a
replica serve data newer than its watermark, silently stale beyond its
bound, or fed from a deposed owner's log."""

import pytest

from repro.chaos import run_scenario
from tests.chaos.helpers import names

REPLICA_SCENARIOS = names("replica")


@pytest.mark.parametrize("scenario", REPLICA_SCENARIOS)
@pytest.mark.parametrize("seed", [1, 2])
def test_replica_scenario_upholds_the_contract(scenario, seed):
    report = run_scenario(f"replica/{scenario}", seed=seed)
    assert report.passed, report.violations
    assert report.observed["violations_by_class"] == {}
    assert report.observed["reads_checked"] >= report.observed["follower_reads_ok"]
    assert report.acked >= report.ops
    assert report.keys_checked >= report.ops
    assert report.observed["followers_placed"] >= 1
    # After the settle heartbeats every follower serves again.
    assert report.observed["follower_reads_ok"] >= report.ops


def test_stale_follower_is_rejected_not_served():
    report = run_scenario("replica/stale-follower-reads")
    assert report.passed, report.violations
    # The schedule provoked at least one bounded-staleness rejection.
    assert report.observed["lag_rejections"] >= 1


def test_follower_crash_replaces_and_catches_up():
    report = run_scenario("replica/follower-crash-catchup")
    assert report.passed, report.violations
    assert report.observed["followers_placed"] >= 1


def test_migration_fences_replicas():
    report = run_scenario("replica/fencing-on-migration")
    assert report.passed, report.violations
