"""Spans over the simulated clock.

A :class:`Span` is anchored to exactly one machine's
:class:`~repro.sim.clock.SimClock`; its *duration* is the time that clock
advanced while the span was open.  A traced cluster owns one
:class:`Tracer` and attaches it to each of its machines
(:meth:`Tracer.attach`): spans opened on an attached machine record into
that tracer, and every ``advance`` of the machine's clock is credited to
the innermost open span *anchored on that clock* (walking up the
ancestor chain), accumulating as its *self seconds* (exclusive time).  A
charge on a clock no open span owns is *background seconds* of the
innermost span: parallel work — secondary replica disks, cancelled hedge
reads — that does not extend the operation's latency.  The walk matters
when a machine plays two roles at once: a DFS replica write hosted on
the client's own machine extends the client op's duration, so it must
land in the client root span's self time, not in the background of the
``dfs.append`` span open on the primary.

Clock attribution rules (see DESIGN.md "Observability"):

* end-to-end latency of a trace is ``duration`` plus, recursively, the
  ``end_to_end`` of children anchored on a *different* clock.  Cross-clock
  children exist only where the simulator does not mirror-charge the
  waiter — the client->server RPC boundary — so the tree metric matches
  the client-observed latency.  DFS reads anchor on the *reader* machine
  because remote waits are mirror-charged to the reader already.
* spans marked ``background`` (hedge losers) never contribute to
  end-to-end latency; their time is reported separately.

Propagation uses ambient context in the same style as
:mod:`repro.sim.deadline`: :func:`span` is a no-op context manager unless
the machine it is given has a tracer *and* an enclosing span exists;
:func:`root_span` — what entry points open — may also start a trace.  An
untraced machine has no tracer, so nothing is recorded for it whatever
other cluster the process traces.  Trace/span ids flow across machines implicitly: the
child span created on the server's clock inherits the ambient parent's
``trace_id``, which is exactly the id a real RPC would carry in its
headers.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import TYPE_CHECKING

from repro.sim.metrics import HIST_SPAN_LATENCY_PREFIX

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.clock import SimClock
    from repro.sim.machine import Machine


class Span:
    """One timed unit of work anchored to a single simulated clock."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "machine",
        "background",
        "root",
        "parent",
        "start",
        "end",
        "self_seconds",
        "background_seconds",
        "children",
        "attrs",
        "_clock",
    )

    def __init__(
        self,
        name: str,
        trace_id: int,
        span_id: int,
        machine: "Machine",
        *,
        background: bool = False,
        attrs: dict | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.machine = machine.name
        self.background = background
        self.root = False
        self.parent: "Span | None" = None
        self._clock = machine.clock
        self.start = machine.clock.now
        self.end: float | None = None
        self.self_seconds = 0.0
        self.background_seconds = 0.0
        self.children: list["Span"] = []
        self.attrs: dict = attrs if attrs is not None else {}

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
        for child in self.children:
            if child.background or child._clock is self._clock:
                continue
            total += child.end_to_end()
        return total

    def walk(self):
        """Yield this span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """Every span in this subtree named ``name``."""
        return [s for s in self.walk() if s.name == name]

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.closed else "open"
        return (
            f"Span({self.name}, trace={self.trace_id}, span={self.span_id}, "
            f"machine={self.machine}, {state})"
        )


_CURRENT: ContextVar[Span | None] = ContextVar("repro_obs_span", default=None)


class _NullScope:
    """Shared no-op context manager: the cost of tracing-off is one
    ``is None`` check plus returning this singleton."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL = _NullScope()


class _SpanScope:
    """Context manager that opens a span on enter and closes it on exit."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        machine: "Machine",
        parent: Span | None,
        background: bool,
        attrs: dict,
    ) -> None:
        self._tracer = tracer
        self._span = tracer._start(name, machine, parent, background, attrs)
        self._token = None

    def __enter__(self) -> Span:
        self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self._span)
        return False


def span(name: str, machine: "Machine", *, background: bool = False, **attrs):
    """A child span: records only inside an already-open trace.

    No-op (returns a shared null context manager) unless ``machine`` has
    a tracer and an enclosing span is current — shared infrastructure
    (WAL, DFS) calls this unconditionally and pays nothing on an
    untraced machine.
    """
    tracer = machine.tracer
    if tracer is None:
        return _NULL
    parent = _CURRENT.get()
    if parent is None:
        return _NULL
    return _SpanScope(tracer, name, machine, parent, background, attrs)


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
    return _SpanScope(tracer, name, machine, _CURRENT.get(), False, attrs)


def current_span() -> Span | None:
    """The innermost open span, if any."""
    return _CURRENT.get()


def _credit_open_span(clock: "SimClock", seconds: float) -> None:
    """The advance observer of every attached clock."""
    active = _CURRENT.get()
    if active is None:
        return
    # Credit the innermost *open* span anchored on the advanced clock:
    # the charge extends that span's duration even when a descendant on
    # another machine is innermost (e.g. a DFS replica write hosted on
    # the client's own machine while dfs.append is open on the primary).
    # A clock no open span owns is parallel work the operation never
    # waits for — book it as the innermost span's background time.
    node: Span | None = active
    while node is not None:
        if clock is node._clock:
            node.self_seconds += seconds
            return
        node = node.parent
    active.background_seconds += seconds


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
        self.spans_started = 0
        self.spans_closed = 0
        self.open_spans = 0
        self._next_trace_id = 1
        self._next_span_id = 1

    def attach(self, machine: "Machine") -> None:
        """Trace ``machine``: spans opened on it record here, and its
        clock's advances are credited to the open spans.  The observer
        refers to no tracer, so a clock never pins one."""
        machine.tracer = self
        machine.clock.observer = _credit_open_span

    # -- span lifecycle (driven by _SpanScope) -----------------------------

    def _start(
        self,
        name: str,
        machine: "Machine",
        parent: Span | None,
        background: bool,
        attrs: dict,
    ) -> Span:
        trace_id = parent.trace_id if parent is not None else self._next_trace_id
        if parent is None:
            self._next_trace_id += 1
        created = Span(
            name,
            trace_id,
            self._next_span_id,
            machine,
            background=background,
            attrs=attrs,
        )
        self._next_span_id += 1
        created.parent = parent
        if parent is not None:
            parent.children.append(created)
        else:
            created.root = True
        self.spans_started += 1
        self.open_spans += 1
        return created

    def _finish(self, finished: Span) -> None:
        finished.end = finished._clock.now
        # Only the clock hook reads ``parent``, and only on open spans:
        # dropping it makes a closed trace a tree that reference counting
        # frees when it leaves the ring.
        finished.parent = None
        self.spans_closed += 1
        self.open_spans -= 1
        # Only roots carry a whole trace: they are recorded into the ring,
        # histogrammed by operation type, and offered to the slow sampler.
        if finished.root:
            latency = finished.end_to_end()
            self.histograms.histogram(
                HIST_SPAN_LATENCY_PREFIX + finished.name
            ).record(latency)
            self.trace_log.append(finished)
            self.slow_ops.offer(finished.name, latency, finished)
