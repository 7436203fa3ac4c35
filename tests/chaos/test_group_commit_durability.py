"""Crash-mid-group-flush durability: seeded concurrent chaos schedules.

Each schedule parks N clients on the victim's commit coordinator and
kills the victim inside a flush at a chosen crash point.  The durability
oracle then reads back every key — an acked member whose group never
replicated would be a Guarantee-1 violation.
"""

import pytest

from repro.chaos import run_scenario

SCHEDULES = [
    pytest.param(1, "log-append-early", id="seed1-log-append"),
    pytest.param(2, "log-append-late", id="seed2-log-append"),
    pytest.param(3, "dfs-append", id="seed3-dfs-append"),
]


@pytest.mark.parametrize("seed, scenario", SCHEDULES)
def test_no_unreplicated_member_is_acked(seed, scenario):
    report = run_scenario(f"group-commit/{scenario}", seed=seed)
    assert report.passed, report.violations
    # The schedule must actually have exercised the hazard.
    assert report.faults_fired >= 1
    assert report.restarted_servers  # the victim died and was recovered
    # The crash interrupted a real multi-member group...
    assert report.indeterminate >= 1
    assert report.observed["mean_fanin"] > 1.0
    # ...and the surviving commits all verified durable.
    assert report.acked > 0
    assert report.keys_checked == report.ops
