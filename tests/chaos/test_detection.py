"""The detection oracle as a test: every seeded fault schedule must fire
its matching alert within the family budget, and every clean twin must
stay silent."""

import pytest

from repro.chaos import SCENARIOS, run_scenario
from repro.chaos.detection import (
    DETECTION_BUDGETS,
    detectable,
    detection_latency_from_report,
    run_detection,
)

#: rows of the covered families that inject nothing the plane could
#: detect — the migrations they run are sanctioned.
NO_FAULT_ROWS = {"replica/fencing-on-migration", "migration/split-then-move"}


def test_matrix_covers_every_fault_schedule():
    """Every row of a family the oracle covers either names the alert
    its fault must fire or is one of the named no-fault rows; the
    families whose monitored arm is not calibrated yet carry none."""
    for key, row in SCENARIOS.items():
        if row.family in DETECTION_BUDGETS:
            assert (row.expected_alert is None) == (key in NO_FAULT_ROWS), key
        else:
            assert row.family in ("base", "group-commit"), key
            assert row.expected_alert is None, key
    assert NO_FAULT_ROWS <= set(SCENARIOS)
    assert {SCENARIOS[key].family for key in detectable()} == set(DETECTION_BUDGETS)


@pytest.mark.parametrize("name", sorted(detectable()))
def test_fault_detected_within_budget(name):
    result = run_detection(name, seed=1, clean_twin=False)
    assert result.run_passed, f"underlying chaos contract failed: {name}"
    assert result.fault_times, "monitor observed no fault"
    assert result.detection_latency is not None, (
        f"expected {result.expected_alert!r} never fired "
        f"(fired: {result.fired})"
    )
    assert result.detection_latency <= result.budget


@pytest.mark.parametrize("family", sorted(DETECTION_BUDGETS), ids=str)
def test_clean_twin_raises_no_alerts(family):
    # One control per family keeps the suite fast; the full cross product
    # runs in bench_monitoring.
    name = sorted(k for k in detectable() if SCENARIOS[k].family == family)[0]
    alerts = run_scenario(name, seed=1, monitoring=True, faults=False).alerts
    assert alerts == [], f"clean {family} run raised {alerts}"


def test_detection_latency_helper_edge_cases():
    class FakeReport:
        fault_times = [2.0, 5.0]
        alerts = [
            {"state": "firing", "alert": "server-down", "time": 1.0},  # pre-fault
            {"state": "resolved", "alert": "server-down", "time": 2.5},
            {"state": "firing", "alert": "server-down", "time": 3.0},
        ]

    assert detection_latency_from_report(FakeReport(), "server-down") == 1.0
    assert detection_latency_from_report(FakeReport(), "no-such-alert") is None

    class NoFaults:
        fault_times = []
        alerts = FakeReport.alerts

    assert detection_latency_from_report(NoFaults(), "server-down") is None
