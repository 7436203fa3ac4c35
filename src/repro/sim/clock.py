"""Per-node simulated clocks.

Each simulated machine (datanode, tablet server, client) owns a clock.
Device models charge costs to the clock of the node performing the work.
Cluster-level experiment duration is the *makespan*: the maximum clock
value across the nodes that participated, since real nodes work in
parallel.

A clock carries two telemetry hooks, both off by default; an advance
compares the time with ``_alarm`` and does nothing more below it, so an
unhooked clock pays one comparison per advance:

* tracing (:meth:`SimClock.observe`): an advance adds to the
  ``self_seconds`` of ``span``, the innermost open span anchored here,
  with no call; with no such span it calls ``observer(clock, seconds)``;
* a wake-up (:meth:`SimClock.wake`): one call at the first advance that
  reaches a given time, so the cluster monitor learns that *some* clock
  passed its next scrape time without reading every clock.
"""

from __future__ import annotations

from typing import Callable

INF = float("inf")


class SimClock:
    """Monotonically advancing simulated time, in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._alarm = INF  # an advance leaves the fast path at or past it
        self._wake_at = INF
        self._wake: Callable[[], None] | None = None
        self.span = None
        self.observer: Callable[[SimClock, float], None] | None = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        now = self._now = self._now + seconds
        if now >= self._alarm:
            span = self.span
            if now >= self._wake_at:
                self._call_out(seconds)
            elif span is not None:
                span.self_seconds += seconds
            else:
                self.observer(self, seconds)

    def advance_to(self, deadline: float) -> None:
        """Move time forward to ``deadline`` if it is in the future."""
        if deadline > self._now:
            delta = deadline - self._now
            self._now = deadline
            if deadline >= self._alarm:
                span = self.span
                if deadline >= self._wake_at:
                    self._call_out(delta)
                elif span is not None:
                    span.self_seconds += delta
                else:
                    self.observer(self, delta)

    def _call_out(self, seconds: float) -> None:
        """Credit an advance that reached the wake-up time, then wake."""
        if self.span is not None:
            self.span.self_seconds += seconds
        elif self.observer is not None:
            self.observer(self, seconds)
        wake, self._wake = self._wake, None
        self._wake_at = INF
        self._alarm = -INF if self.observer is not None else INF
        wake()

    def observe(self, observer: Callable[["SimClock", float], None]) -> None:
        """Trace this clock (see the module docstring)."""
        self.observer = observer
        self._alarm = -INF

    def wake(self, at: float, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once, at the first advance reaching ``at``."""
        self._wake_at = at
        self._wake = callback
        if self.observer is None:
            self._alarm = at

    def reset(self, start: float = 0.0) -> None:
        """Rewind the clock (used between benchmark phases)."""
        self._now = float(start)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"


def makespan(clocks: list[SimClock]) -> float:
    """Duration of a parallel phase: the max time across participating nodes."""
    return max([clock.now for clock in clocks], default=0.0)
