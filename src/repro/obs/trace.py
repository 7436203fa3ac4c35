"""Spans over the simulated clock.

A :class:`Span` is anchored to exactly one machine's
:class:`~repro.sim.clock.SimClock`; its *duration* is the time that clock
advanced while the span was open.  A traced cluster owns one
:class:`Tracer` and attaches it to each of its machines
(:meth:`Tracer.attach`): spans opened on an attached machine record into
that tracer, and every ``advance`` of the machine's clock is credited to
the innermost open span *anchored on that clock* (the clock holds it, so
the credit is one addition inside ``SimClock.advance``), accumulating as
its *self seconds* (exclusive time).  A charge on a clock no open span
owns is *background seconds* of the innermost span: parallel work —
secondary replica disks, cancelled hedge reads — that does not extend the
operation's latency.  Anchoring on the clock matters when a machine plays
two roles at once: a DFS replica write hosted on the client's own machine
extends the client op's duration, so it must land in the client root
span's self time, not in the background of the ``dfs.append`` span open
on the primary.

Clock attribution rules (see DESIGN.md "Observability"):

* end-to-end latency of a trace is ``duration`` plus, recursively, the
  ``end_to_end`` of children anchored on a *different* clock.  Cross-clock
  children exist only where the simulator does not mirror-charge the
  waiter — the client->server RPC boundary — so the tree metric matches
  the client-observed latency.  DFS reads anchor on the *reader* machine
  because remote waits are mirror-charged to the reader already.
* spans marked ``background`` (hedge losers) never contribute to
  end-to-end latency; their time is reported separately.

Propagation is one process-wide stack of open spans (each span links its
parent): :func:`span` is a no-op context manager unless the machine it is
given has a tracer *and* an enclosing span exists;
:func:`root_span` — what entry points open — may also start a trace.  An
untraced machine has no tracer, so nothing is recorded for it whatever
other cluster the process traces.  Trace/span ids flow across machines implicitly: the
child span created on the server's clock inherits the ambient parent's
``trace_id``, which is exactly the id a real RPC would carry in its
headers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.metrics import HIST_SPAN_LATENCY_PREFIX

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.machine import Machine

#: the innermost open span of the process, or None.  A stack, not a
#: ContextVar: spans open and close inside one call on every path (the
#: client loop's steps hold none across a ``yield``), so they nest.
_active: "Span | None" = None


class Span:
    """One timed unit of work anchored to a single simulated clock, and
    the context manager that keeps it open."""

    __slots__ = (
        "name", "trace_id", "span_id", "machine", "background", "root", "parent",
        "start", "end", "self_seconds", "background_seconds", "attrs",
        "_clock", "_tracer", "_outer", "_first", "_last", "_next",
    )

    def __init__(
        self, tracer: "Tracer", name: str, machine: "Machine",
        parent: "Span | None", background: bool, attrs: dict,
    ) -> None:
        self.name = name
        self.span_id = tracer._next_span_id
        tracer._next_span_id += 1
        if parent is None:
            self.trace_id = tracer._next_trace_id
            tracer._next_trace_id += 1
            self.root = True
        else:
            self.trace_id = parent.trace_id
            self.root = False
            if parent._last is None:
                parent._first = self
            else:
                parent._last._next = self
            parent._last = self
        self.parent = parent
        self.machine = machine.name
        self.background = background
        clock = self._clock = machine.clock
        self.start = clock._now
        self.end: float | None = None
        self.self_seconds = 0.0
        self.background_seconds = 0.0
        #: the call's keyword attributes; None when it gave none.
        self.attrs: dict | None = attrs or None
        self._tracer = tracer
        # Children, in open order, as a chain: first, last, next sibling
        # (no container object per span).
        self._first = self._last = self._next = None

    def __enter__(self) -> "Span":
        global _active
        clock = self._clock
        self._outer = clock.span  # restored on exit
        clock.span = _active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _active
        clock = self._clock
        clock.span = self._outer
        _active = self.parent
        # Only open spans need the links: dropping them makes a closed
        # trace a tree that reference counting frees when it leaves the
        # ring.
        self._outer = self.parent = None
        if exc_type is not None:
            self.attrs = self.attrs or {}
            self.attrs.setdefault("error", exc_type.__name__)
        self.end = clock._now
        tracer = self._tracer
        tracer.spans_closed += 1
        # Only roots carry a whole trace: they are recorded into the ring,
        # histogrammed by operation type, and offered to the slow sampler.
        if self.root:
            latency = self.end_to_end()
            tracer.histograms.histogram(HIST_SPAN_LATENCY_PREFIX + self.name).record(
                latency
            )
            tracer.trace_log.append(self)
            tracer.slow_ops.offer(self.name, latency, self)
        return False

    @property
    def children(self) -> list["Span"]:
        """Child spans, in open order."""
        kids = []
        child = self._first
        while child is not None:
            kids.append(child)
            child = child._next
        return kids

    @property
    def closed(self) -> bool:
        """Whether the span has ended."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Time the span's own clock advanced while it was open."""
        end = self.end if self.end is not None else self._clock.now
        return end - self.start

    def end_to_end(self) -> float:
        """The latency this span explains: own-clock duration plus the
        end-to-end time of children that ran on a *different* clock (RPC
        hops the anchor clock never paid for).  Background children are
        parallel work and contribute nothing."""
        total = self.duration
        child = self._first
        while child is not None:
            if not child.background and child._clock is not self._clock:
                total += child.end_to_end()
            child = child._next
        return total

    def walk(self):
        """Yield this span and every descendant, preorder."""
        yield self
        child = self._first
        while child is not None:
            yield from child.walk()
            child = child._next

    def find(self, name: str) -> list["Span"]:
        """Every span in this subtree named ``name``."""
        return [s for s in self.walk() if s.name == name]

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.closed else "open"
        return (
            f"Span({self.name}, trace={self.trace_id}, span={self.span_id}, "
            f"machine={self.machine}, {state})"
        )


class _NullScope:
    """Shared no-op context manager: the cost of tracing-off is one
    ``is None`` check plus returning this singleton."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL = _NullScope()


def span(name: str, machine: "Machine", *, background: bool = False, **attrs):
    """A child span: records only inside an already-open trace.

    No-op (returns a shared null context manager) unless ``machine`` has
    a tracer and an enclosing span is open — shared infrastructure
    (WAL, DFS) calls this unconditionally and pays nothing on an
    untraced machine.
    """
    tracer = machine.tracer
    if tracer is None or _active is None:
        return _NULL
    return Span(tracer, name, machine, _active, background, attrs)


def root_span(name: str, machine: "Machine", **attrs):
    """A span that may start a new trace on a traced ``machine``.

    Entry points open it unconditionally: client ops, tablet-server
    maintenance, recovery, commit flushes and transaction commits.
    Inside an already-open trace it is a child span, so e.g. a
    server-side compaction triggered within a traced client op nests
    correctly.
    """
    tracer = machine.tracer
    if tracer is None:
        return _NULL
    return Span(tracer, name, machine, _active, False, attrs)


def current_span() -> Span | None:
    """The innermost open span, if any."""
    return _active


def _credit_background(clock, seconds: float) -> None:
    """The observer of every attached clock: a charge on a clock that
    holds no open span is parallel work the operation never waits for
    (a secondary replica disk, a cancelled hedge read), booked as the
    innermost span's background time."""
    if _active is not None:
        _active.background_seconds += seconds


class Tracer:
    """Collects spans into traces, histograms and the slow-op sampler.

    Args:
        ring: closed root spans kept in the :class:`~repro.obs.analyze.TraceLog`
            ring buffer (oldest evicted first).
        slow_samples: worst traces kept per operation type.
    """

    def __init__(self, ring: int = 512, slow_samples: int = 4) -> None:
        # Imported here: analyze/hist import nothing from trace at module
        # scope, but keeping the dependency one-way at import time avoids
        # a cycle through the package __init__.
        from repro.obs.analyze import SlowOpSampler, TraceLog
        from repro.obs.hist import HistogramRegistry

        self.trace_log = TraceLog(ring)
        self.histograms = HistogramRegistry()
        self.slow_ops = SlowOpSampler(slow_samples)
        self.spans_closed = 0
        self._next_trace_id = 1
        self._next_span_id = 1

    @property
    def spans_started(self) -> int:
        """Spans opened so far."""
        return self._next_span_id - 1

    @property
    def open_spans(self) -> int:
        """Spans opened and not yet closed."""
        return self.spans_started - self.spans_closed

    def attach(self, machine: "Machine") -> None:
        """Trace ``machine``: spans opened on it record here, and its
        clock's advances are credited to the open spans.  The observer
        refers to no tracer, so a clock never pins one."""
        machine.tracer = self
        machine.clock.observe(_credit_background)
