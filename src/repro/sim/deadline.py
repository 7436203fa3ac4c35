"""Deadline propagation across simulated clock domains.

A :class:`Deadline` is a time *budget* rather than an absolute wall-clock
instant: the cluster's per-machine :class:`~repro.sim.clock.SimClock`\\ s
are unsynchronized, so "expires at t=1.5" means nothing across machines.
Instead the deadline anchors its remaining budget to one clock at a time;
:meth:`rebase` transfers whatever budget is left onto another machine's
clock as a request hops client → tablet server → DFS reader.

Propagation through deep call stacks uses the same ambient-global pattern
as :mod:`repro.sim.failure`'s fault plans: the client arms its deadline
with :func:`deadline_scope`, and instrumented code (log repository reads,
DFS replica reads, tablet-server entry points) polls
:func:`check_deadline` — a no-op costing one ``is None`` check unless a
deadline is active, so the gated-off benchmarks are unaffected.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.errors import DeadlineExceededError
from repro.sim.clock import SimClock


class Deadline:
    """A propagatable time budget anchored to one simulated clock.

    Args:
        clock: the clock the budget is initially anchored to.
        budget: simulated seconds until expiry, measured on ``clock``.
    """

    __slots__ = ("_clock", "_anchor", "_budget")

    def __init__(self, clock: SimClock, budget: float) -> None:
        if budget < 0:
            raise ValueError("deadline budget must be >= 0")
        self._clock = clock
        self._anchor = clock.now
        self._budget = budget

    @classmethod
    def after(cls, clock: SimClock, seconds: float) -> "Deadline":
        """A deadline expiring ``seconds`` from now on ``clock``."""
        return cls(clock, seconds)

    def remaining(self) -> float:
        """Budget left in simulated seconds (may be negative once blown)."""
        return self._budget - (self._clock.now - self._anchor)

    @property
    def expired(self) -> bool:
        """Whether the budget has been used up."""
        return self.remaining() <= 0

    def rebase(self, clock: SimClock) -> "Deadline":
        """Move the remaining budget onto ``clock`` (RPC hop).

        Time already consumed on the old clock stays consumed; from here
        on, consumption is measured on the new clock.  Returns self for
        chaining.
        """
        self._budget = self.remaining()
        self._clock = clock
        self._anchor = clock.now
        return self

    def check(self, label: str = "operation") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is gone."""
        if self.expired:
            raise DeadlineExceededError(
                f"{label} exceeded its deadline "
                f"(over budget by {-self.remaining():.6f}s)"
            )

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.6f}s)"


_ACTIVE_DEADLINE: Deadline | None = None


def current_deadline() -> Deadline | None:
    """The ambient deadline armed by :func:`deadline_scope`, if any."""
    return _ACTIVE_DEADLINE


def check_deadline(label: str = "operation") -> None:
    """Hook for instrumented code: enforce the ambient deadline.

    A no-op (one global ``is None`` check) unless a scope is active.
    """
    if _ACTIVE_DEADLINE is not None:
        _ACTIVE_DEADLINE.check(label)


class deadline_scope:
    """Arm ``deadline`` as the ambient deadline for the ``with`` block.

    ``None`` returns one shared no-op scope, so call sites can pass their
    optional deadline through unconditionally: every client call enters one.
    """

    __slots__ = ("_deadline", "_previous")

    def __new__(cls, deadline: Deadline | None):
        return _NO_SCOPE if deadline is None else object.__new__(cls)

    def __init__(self, deadline: Deadline) -> None:
        self._deadline = deadline

    def __enter__(self) -> Deadline:
        global _ACTIVE_DEADLINE
        self._previous = _ACTIVE_DEADLINE
        _ACTIVE_DEADLINE = self._deadline
        return self._deadline

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE_DEADLINE
        _ACTIVE_DEADLINE = self._previous


_NO_SCOPE = nullcontext()
