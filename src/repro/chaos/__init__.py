"""Chaos testing: seeded fault scenarios checked against invariants.

The harness (:mod:`repro.chaos.runner`) runs one registry row at a time:
it drives seeded traffic against a full cluster while a
:class:`~repro.sim.failure.FaultPlan` kills nodes at instrumented crash
points, partitions the network, degrades disks and links, and interrupts
recoveries and migrations mid-flight.  A
:class:`~repro.chaos.oracle.DurabilityOracle` tracks the fate the client
observed for every write and, after recovery, verifies the paper's
durability contract: every acknowledged write is readable, no
cleanly-aborted write is visible, and indeterminate commits are atomic
(all-or-nothing).  Configs with live migration or read replicas add the
single-owner and staleness invariants (:mod:`repro.chaos.invariants`).
"""

from repro.chaos.invariants import StalenessChecker, check_single_owner
from repro.chaos.oracle import DurabilityOracle, WriteStatus
from repro.chaos.runner import SCENARIOS, matrix, run_scenario
from repro.chaos.scenario import ChaosReport, Scenario

__all__ = [
    "ChaosReport",
    "DurabilityOracle",
    "SCENARIOS",
    "Scenario",
    "StalenessChecker",
    "WriteStatus",
    "check_single_owner",
    "matrix",
    "run_scenario",
]
