"""The group-commit chaos rows composed with every production gate.

The rows need no gate of their own (every server has a commit
coordinator), so they run under ``LogBaseConfig.production()``: the kill
mid-group-flush must still ack no unreplicated member while leases,
read replicas and tracing are all on.
"""

import pytest

from repro.chaos import run_scenario
from repro.chaos.concurrent import ROWS
from repro.config import LogBaseConfig


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("row", [row.name for row in ROWS])
def test_group_commit_row_passes_under_production(row, seed):
    report = run_scenario(
        f"group-commit/{row}",
        seed=seed,
        config=LogBaseConfig.production(segment_size=64 * 1024),
    )
    assert report.passed, report.violations
    assert sorted(report.invariants) == ["durability", "single-owner", "staleness"]
    assert report.observed["mean_fanin"] > 1
