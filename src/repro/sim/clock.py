"""Per-node simulated clocks.

Each simulated machine (datanode, tablet server, client) owns a clock.
Device models charge costs to the clock of the node performing the work.
Cluster-level experiment duration is the *makespan*: the maximum clock
value across the nodes that participated, since real nodes work in
parallel.

A clock may carry an advance ``observer``, called as
``observer(clock, seconds)`` after every positive advance.  Only the
tracer of the cluster that owns the machine sets it
(:meth:`repro.obs.trace.Tracer.attach`), to credit charged time to the
innermost open span; an untraced machine's clock has none, and the cost
is one ``is None`` check per advance.
"""

from __future__ import annotations

from typing import Callable


class SimClock:
    """Monotonically advancing simulated time, in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self.observer: Callable[[SimClock, float], None] | None = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        self._now += seconds
        if self.observer is not None and seconds:
            self.observer(self, seconds)

    def advance_to(self, deadline: float) -> None:
        """Move time forward to ``deadline`` if it is in the future."""
        if deadline > self._now:
            delta = deadline - self._now
            self._now = deadline
            if self.observer is not None:
                self.observer(self, delta)

    def reset(self, start: float = 0.0) -> None:
        """Rewind the clock (used between benchmark phases)."""
        self._now = float(start)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"


def makespan(clocks: list[SimClock]) -> float:
    """Duration of a parallel phase: the max time across participating nodes."""
    return max([clock.now for clock in clocks], default=0.0)
