"""Failure injection for simulated nodes.

Anything with an ``alive`` attribute and a ``fail()`` method can register
with an injector; tests and the recovery benchmarks use it to kill nodes
deterministically at chosen points.

Beyond whole-node kills the injector supports ``revive()`` (restart
bookkeeping for kill -> revive -> kill cycles) and ``degrade()`` (slow-disk
mode for nodes whose registered object exposes a ``disk``).  Each cluster
owns one injector; its ``observer`` — the cluster's monitor, when there
is one — hears every kill and degradation of that cluster, and every
fault-plan rule that fires while the plan is armed on that injector.

Deterministic *crash schedules* are expressed as a :class:`FaultPlan`: a
list of :class:`FaultRule` objects keyed by named crash points.
Instrumented code calls :func:`crash_point` at interesting moments (log
append, transaction commit, checkpoint, compaction); when no plan is
active — the default, and the only state the benchmarks ever see — the
call is a no-op costing one global ``is None`` check.  Activating a plan
with the :func:`fault_plan` context manager arms the rules: each rule
counts matching hits and fires its action (typically killing a node and
raising) on the Nth one, which is how "kill server X on its 3rd append"
or "crash at commit" schedules are built.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Protocol


class Failable(Protocol):
    """Minimal interface a node must expose to be failure-injectable."""

    alive: bool

    def fail(self) -> None:
        """Transition the node to the failed state."""


class FailureInjector:
    """Registry of failable nodes with kill/revive/degrade bookkeeping.

    ``killed`` lists the nodes that are *currently* down: ``kill`` appends,
    ``revive`` removes, so a kill -> revive -> kill cycle leaves exactly one
    entry.  ``kill_history`` is append-only and records every kill ever
    issued, in order.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, Failable] = {}
        self.killed: list[str] = []
        self.kill_history: list[str] = []
        # name -> current slowdown factor for nodes degraded (not 1.0).
        self.degraded: dict[str, float] = {}
        # Called as ``observer(kind, detail)`` for every fault noted here.
        self.observer: Callable[[str, dict[str, Any]], None] | None = None

    def notify(self, kind: str, detail: dict[str, Any]) -> None:
        """Report one fault to the observer, if any."""
        if self.observer is not None:
            self.observer(kind, detail)

    def register(self, name: str, node: Failable) -> None:
        """Track ``node`` under ``name`` for later failure injection."""
        self._nodes[name] = node

    def node(self, name: str) -> Failable:
        """The registered node object for ``name``.

        Raises:
            KeyError: if no node with that name is registered.
        """
        return self._nodes[name]

    def kill(self, name: str) -> None:
        """Fail the named node.  Killing an already-dead node is a no-op.

        Raises:
            KeyError: if no node with that name is registered.
        """
        node = self._nodes[name]
        if not node.alive:
            return
        node.fail()
        self.killed.append(name)
        self.kill_history.append(name)
        self.notify("kill", {"node": name})

    def revive(self, name: str) -> None:
        """Bring a killed node back up and clear it from ``killed``.

        Uses the node's ``restart()`` method when it has one (machines
        model memory loss themselves); otherwise flips ``alive`` directly.
        Reviving a live node is a no-op.

        Raises:
            KeyError: if no node with that name is registered.
        """
        node = self._nodes[name]
        if node.alive:
            return
        restart = getattr(node, "restart", None)
        if callable(restart):
            restart()
        else:
            node.alive = True
        self.killed = [n for n in self.killed if n != name]

    def degrade(self, name: str, factor: float) -> None:
        """Put the named node's disk in degraded mode: every access costs
        ``factor`` times the healthy model.  ``factor=1.0`` restores full
        health.

        Raises:
            KeyError: if no node with that name is registered.
            TypeError: if the registered node has no ``disk``.
        """
        node = self._nodes[name]
        disk = getattr(node, "disk", None)
        if disk is None:
            raise TypeError(f"node {name!r} has no disk to degrade")
        disk.set_slowdown(factor)
        if factor == 1.0:
            self.degraded.pop(name, None)
        else:
            self.degraded[name] = factor
            self.notify("degrade", {"node": name, "factor": factor})

    def is_alive(self, name: str) -> bool:
        """Whether the named node is currently up."""
        return self._nodes[name].alive

    def alive_nodes(self) -> list[str]:
        """Names of registered nodes that are still alive."""
        return [name for name, node in self._nodes.items() if node.alive]


# ---------------------------------------------------------------------------
# Crash points and fault plans
# ---------------------------------------------------------------------------

# Canonical crash-point names.  Instrumented code imports these constants so
# schedules and call sites agree on spelling.
CP_LOG_APPEND = "log.append"            # ctx: machine, root
CP_TXN_PRE_COMMIT = "txn.pre_commit"    # before the commit record is durable
CP_TXN_POST_COMMIT = "txn.post_commit"  # durable but not yet applied
CP_CHECKPOINT_MID = "checkpoint.mid"    # between tail files of a checkpoint
CP_COMPACTION_MID = "compaction.mid"    # after reduce, before install
CP_META_PERSIST = "log.meta_persist"    # slim metadata written to temp, not yet swapped
CP_LOG_RETIRE = "log.retire"            # ctx: machine, root — map swapped, retired files not yet deleted
CP_DFS_APPEND = "dfs.append"            # ctx: block, writer — per pipeline run
CP_DFS_REREPLICATE = "dfs.rereplicate"  # ctx: block — per block re-replicated
CP_RECOVERY_MID = "recovery.mid"        # ctx: server, segment|tablet — mid redo
CP_SPLIT_PERSIST = "recovery.split_persist"  # split file on temp, not yet swapped
CP_ADOPT_MID = "recovery.adopt_mid"     # ctx: server, tablet — between re-homed records
CP_MIGRATION_PREPARE = "migration.prepare"  # ctx: tablet, source, target — intent persisted
CP_MIGRATION_CATCHUP = "migration.catchup"  # ctx: tablet, source, target, stage — before / after the re-home
CP_MIGRATION_FLIP = "migration.flip"    # ctx: tablet, source, target, stage — fenced flip
CP_SPLIT_FLIP = "migration.split_flip"  # ctx: tablet, server — tablet split commit window


@dataclass
class FaultRule:
    """One entry in a fault schedule.

    The rule matches calls to :func:`crash_point` whose name equals
    ``point`` and whose context contains every ``match`` item; the
    ``action`` fires on the ``hits``-th matching call (once, unless
    ``repeat``).  Actions usually kill a node via a
    :class:`FailureInjector` and may raise to simulate the crash
    interrupting the instrumented operation.

    Attributes:
        point: crash-point name (one of the ``CP_*`` constants).
        action: callback receiving the hit's context dict.
        hits: fire on the Nth matching hit (1 = first).
        match: context items that must all be present for a hit to count.
        repeat: fire on every ``hits``-th hit instead of only once.
    """

    point: str
    action: Callable[[dict[str, Any]], None]
    hits: int = 1
    match: dict[str, Any] = field(default_factory=dict)
    repeat: bool = False
    seen: int = 0
    fired: int = 0

    def matches(self, ctx: dict[str, Any]) -> bool:
        return all(ctx.get(k) == v for k, v in self.match.items())


class FaultPlan:
    """A deterministic schedule of faults keyed by crash points."""

    def __init__(self) -> None:
        self.rules: list[FaultRule] = []
        # (point, ctx) of every action that fired, in order.
        self.fired: list[tuple[str, dict[str, Any]]] = []
        # The injector of the cluster the plan is armed on (fault_plan).
        self.injector: FailureInjector | None = None

    def add(
        self,
        point: str,
        action: Callable[[dict[str, Any]], None],
        *,
        hits: int = 1,
        repeat: bool = False,
        **match: Any,
    ) -> FaultRule:
        """Append a rule; keyword arguments are context matchers."""
        rule = FaultRule(point=point, action=action, hits=hits, match=match, repeat=repeat)
        self.rules.append(rule)
        return rule

    def hit(self, point: str, ctx: dict[str, Any]) -> None:
        """Record one crash-point hit and fire any due rules."""
        for rule in self.rules:
            if rule.point != point or not rule.matches(ctx):
                continue
            rule.seen += 1
            due = (
                rule.seen % rule.hits == 0
                if rule.repeat
                else (rule.seen == rule.hits and rule.fired == 0)
            )
            if due:
                rule.fired += 1
                self.fired.append((point, dict(ctx)))
                # Observed *before* the action runs: the flight recorder's
                # snapshot must show the cluster as the crash found it.
                if self.injector is not None:
                    self.injector.notify(f"crash-point:{point}", dict(ctx))
                rule.action(ctx)


_ACTIVE_PLAN: FaultPlan | None = None


def crash_point(name: str, **ctx: Any) -> None:
    """Hook for instrumented code.  A no-op unless a plan is active."""
    if _ACTIVE_PLAN is not None:
        _ACTIVE_PLAN.hit(name, ctx)


@contextmanager
def fault_plan(
    plan: FaultPlan, injector: FailureInjector | None = None
) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the ``with`` block; its fired
    rules are reported through ``injector`` (the cluster's)."""
    global _ACTIVE_PLAN
    plan.injector = injector
    previous = _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    try:
        yield plan
    finally:
        _ACTIVE_PLAN = previous


def kill_action(
    injector: FailureInjector,
    name: str,
    raise_exc: Exception | None = None,
) -> Callable[[dict[str, Any]], None]:
    """Action factory: kill ``name`` via ``injector``; then raise
    ``raise_exc`` if given, so the crash interrupts the instrumented
    operation the way a real process death would."""

    def action(_ctx: dict[str, Any]) -> None:
        injector.kill(name)
        if raise_exc is not None:
            raise raise_exc

    return action


def limp_action(
    injector: FailureInjector, name: str, factor: float
) -> Callable[[dict[str, Any]], None]:
    """Action factory: put ``name``'s disk in degraded mode (gray failure).

    Unlike :func:`kill_action` nothing raises — a limping node keeps
    serving, just ``factor`` times slower, which is exactly why fail-stop
    detection cannot see it.  ``factor=1.0`` heals the node.
    """

    def action(_ctx: dict[str, Any]) -> None:
        injector.degrade(name, factor)

    return action


def link_limp_action(
    links: Any, a: str, b: str, factor: float
) -> Callable[[dict[str, Any]], None]:
    """Action factory: degrade the ``a``↔``b`` network link by ``factor``
    (see :class:`~repro.sim.network.LinkHealth`).  ``factor=1.0`` heals."""

    def action(_ctx: dict[str, Any]) -> None:
        links.slow(a, b, factor)

    return action
