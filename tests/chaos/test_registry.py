"""The registry as a whole: every row is deterministic, and a run checks
the invariants its *config* arms, whichever family the row lives in."""

import pytest

from repro.chaos import SCENARIOS, run_scenario
from repro.config import LogBaseConfig


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_same_seed_same_report(name):
    # The determinism gate: a scenario that reads wall-clock time, a set's
    # iteration order or a global RNG shows up here as a flaky diff.
    first = run_scenario(name, seed=1)
    assert first.passed, first.violations
    # Only failover stages files, and it deletes them when it is done.
    assert first.observed["split_files_left"] == 0
    # A run and its index are installed, and retired, together.
    assert first.observed["runs_without_index"] == 0
    assert run_scenario(name, seed=1).to_dict() == first.to_dict()


@pytest.mark.parametrize(
    ("name", "armed"),
    [
        ("base/partition-heal", ["history"]),
        ("recovery/crash-during-split", ["history"]),
        ("migration/partition-old-owner", ["single-owner", "history"]),
        ("replica/stale-follower-reads", ["single-owner", "history"]),
    ],
)
def test_invariants_follow_the_config(name, armed):
    assert run_scenario(name).invariants == armed


def test_invariants_follow_a_callers_config_too():
    # A migration row under a replica config is probed like a replica row.
    config = LogBaseConfig.with_read_replicas(segment_size=64 * 1024)
    report = run_scenario("migration/crash-source-mid-catchup", config=config)
    assert report.passed, report.violations
    assert report.invariants == ["single-owner", "history"]
    assert report.observed["follower_reads_ok"] >= report.ops


def test_clean_twin_runs_the_workload_without_the_fault():
    faulted = run_scenario("base/kill-revive-readopt", ops=40)
    clean = run_scenario("base/kill-revive-readopt", ops=40, faults=False)
    assert clean.passed, clean.violations
    assert clean.acked > 0 and clean.observed["events_run"] == 0
    assert faulted.expired_servers and not clean.expired_servers


def test_report_flattens_scenario_observations():
    report = run_scenario("recovery/crash-during-adoption")
    data = report.to_dict()
    assert "observed" not in data
    assert data["fence_epoch"] == report.observed["fence_epoch"] == 2
    assert data["family"] == "recovery" and data["scenario"] == "crash-during-adoption"
