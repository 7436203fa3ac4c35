"""Chaos testing: seeded fault scenarios checked against invariants.

The harness (:mod:`repro.chaos.runner`) runs one registry row at a time:
it drives seeded traffic against a full cluster while a
:class:`~repro.sim.failure.FaultPlan` kills nodes at instrumented crash
points, partitions the network, degrades disks and links, and interrupts
recoveries and migrations mid-flight.  A
:class:`~repro.chaos.history.History` records every op the clients
issue — concurrent transactions included — and, after recovery, checks
every read by one rule over commit timestamps: every acknowledged write
is readable, no cleanly-aborted write is visible, indeterminate commits
are atomic, a client never reads below its own floor, a follower serves
exactly what its watermark covers, and transactions read their snapshot
without losing updates.  Configs with live migration add the
single-owner invariant (:mod:`repro.chaos.invariants`).
"""

from repro.chaos.history import History, WriteStatus
from repro.chaos.invariants import check_single_owner
from repro.chaos.runner import SCENARIOS, matrix, run_scenario
from repro.chaos.scenario import ChaosReport, Scenario

__all__ = [
    "ChaosReport",
    "History",
    "SCENARIOS",
    "Scenario",
    "WriteStatus",
    "check_single_owner",
    "matrix",
    "run_scenario",
]
