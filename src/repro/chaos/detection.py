"""The detection oracle: every seeded fault must page, clean runs must not.

The chaos families prove the *database* survives its faults; this module
proves the *monitoring plane* notices them.  For every registry row that
names an ``expected_alert`` it runs the monitored arm and asserts three
things:

* the **matching alert** for the fault class actually fired (a dead
  server pages ``server-down``, a limping disk trips ``breaker-open``, a
  degraded replication link burns the put SLO, ...);
* it fired within the family's **detection budget** in simulated seconds
  (:data:`DETECTION_BUDGETS`), measured from the first observed fault to
  the first matching firing; and
* the **clean twin** — the same run with ``faults=False``: same config
  (including each gray schedule's overrides), same seeding and workload,
  no fault — raises *zero* alerts, so every rule earns its keep without
  crying wolf.

Rows without an expected alert inject nothing the plane could detect
(``replica/fencing-on-migration`` and ``migration/split-then-move`` run
sanctioned migrations) or belong to families whose monitored arm is not
calibrated yet (base, group-commit).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.chaos.runner import SCENARIOS, run_scenario

#: per-family detection budget (simulated seconds from first fault to
#: first matching firing).  Observed latencies at the pinned seed sit at
#: less than half of each bound: kills are seen at the next heartbeat
#: (tens of milliseconds of simulated time), SLO burn needs enough
#: window samples to cross the burn threshold (~0.65s for the degraded
#: link), lease-fence rejection waits out the ownership lease (~0.52s).
DETECTION_BUDGETS: dict[str, float] = {
    "gray": 1.5,
    "migration": 1.0,
    "recovery": 0.5,
    "replica": 0.5,
}


@dataclass
class DetectionResult:
    """One (family, scenario) verdict from the oracle."""

    family: str
    scenario: str
    expected_alert: str
    budget: float
    run_passed: bool = False  # the underlying chaos contract held
    fired: list[str] = field(default_factory=list)
    fault_times: list[float] = field(default_factory=list)
    detection_latency: float | None = None
    clean_alerts: list[dict] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        """The expected alert fired within budget, from a fault the
        monitor actually observed."""
        return (
            self.detection_latency is not None
            and self.detection_latency <= self.budget
        )

    @property
    def passed(self) -> bool:
        return self.run_passed and self.detected and not self.clean_alerts

    def to_dict(self) -> dict:
        return {**asdict(self), "detected": self.detected, "passed": self.passed}


def detection_latency_from_report(report, alert_name: str) -> float | None:
    """Simulated seconds from the report's first fault to the first
    firing of ``alert_name`` at or after it; None if it never fired (or
    the monitor observed no fault at all)."""
    if not report.fault_times:
        return None
    first_fault = min(report.fault_times)
    for record in report.alerts:
        if (
            record["state"] == "firing"
            and record["alert"] == alert_name
            and record["time"] >= first_fault
        ):
            return record["time"] - first_fault
    return None


def detectable() -> list[str]:
    """Registry keys of every row the oracle covers."""
    return [key for key, row in SCENARIOS.items() if row.expected_alert]


def run_detection(
    name: str, seed: int = 1, *, clean_twin: bool = True
) -> DetectionResult:
    """Run one monitored registry row (and, by default, its clean twin)
    through the detection oracle."""
    row = SCENARIOS[name]
    report = run_scenario(name, seed=seed, monitoring=True)
    result = DetectionResult(
        family=row.family,
        scenario=row.name,
        expected_alert=row.expected_alert,
        budget=DETECTION_BUDGETS[row.family],
        run_passed=report.passed,
        fired=sorted(report.fired_alert_names()),
        fault_times=list(report.fault_times),
        detection_latency=detection_latency_from_report(
            report, row.expected_alert
        ),
    )
    if clean_twin:
        result.clean_alerts = run_scenario(
            name, seed=seed, monitoring=True, faults=False
        ).alerts
    return result

