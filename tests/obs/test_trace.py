"""Unit tests for spans, clock attribution, trace analysis and export."""

import gc
import json

import pytest

from repro.obs.analyze import (
    SlowOpSampler,
    TraceLog,
    coverage,
    critical_path,
    format_time_report,
    layer_breakdown,
    span_layer,
    where_did_time_go,
)
from repro.obs.export import chrome_trace, export_chrome_trace
from repro.obs.trace import Span, Tracer, current_span, root_span, span
from repro.sim.machine import Machine


def tracer(*machines: Machine, **kwargs) -> Tracer:
    created = Tracer(**kwargs)
    for machine in machines:
        created.attach(machine)
    return created


# -- gating ----------------------------------------------------------------


def test_span_is_noop_without_tracer():
    machine = Machine("m0")
    with root_span("op.get", machine) as opened:
        assert opened is None
        with span("log.append", machine) as child:
            assert child is None
    assert current_span() is None
    assert machine.tracer is None and machine.clock.observer is None


def test_child_span_is_noop_without_open_trace():
    machine = Machine("m0")
    installed = tracer(machine)
    with span("log.append", machine) as opened:
        assert opened is None
    assert installed.spans_started == 0


# -- clock attribution -----------------------------------------------------


def test_root_span_collects_own_clock_advance():
    machine = Machine("m0")
    installed = tracer(machine)
    with root_span("op.get", machine) as root:
        machine.clock.advance(0.25)
    assert root.closed
    assert root.duration == pytest.approx(0.25)
    assert root.self_seconds == pytest.approx(0.25)
    assert installed.open_spans == 0
    assert installed.trace_log.traces() == [root]


def test_cross_clock_child_extends_end_to_end():
    client, server = Machine("client"), Machine("server")
    tracer(client, server)
    with root_span("op.get", client) as root:
        client.clock.advance(0.1)
        with span("rpc.server", server) as rpc:
            server.clock.advance(0.4)
    assert rpc.trace_id == root.trace_id
    assert rpc.machine == "server"
    assert root.end_to_end() == pytest.approx(0.5)
    assert coverage(root) == pytest.approx(1.0)
    assert [s.name for s in critical_path(root)] == ["op.get", "rpc.server"]


def test_same_clock_child_does_not_double_count():
    machine = Machine("m0")
    tracer(machine)
    with root_span("op.put", machine) as root:
        with span("log.append", machine) as child:
            machine.clock.advance(0.3)
    # The child's time already advanced the root's own clock: end-to-end
    # is the root duration alone, and exclusive time sits on the child.
    assert root.end_to_end() == pytest.approx(0.3)
    assert child.self_seconds == pytest.approx(0.3)
    assert root.self_seconds == pytest.approx(0.0)
    assert coverage(root) == pytest.approx(1.0)
    # Same-clock children overlap the parent: the critical path stops.
    assert [s.name for s in critical_path(root)] == ["op.put"]


def test_background_child_excluded_from_latency():
    reader, loser = Machine("reader"), Machine("loser")
    tracer(reader, loser)
    with root_span("op.get", reader) as root:
        reader.clock.advance(0.1)
        with span("dfs.hedge.loser", loser, background=True) as bg:
            loser.clock.advance(0.7)
    assert bg.closed and bg.background
    assert root.end_to_end() == pytest.approx(0.1)
    layers = layer_breakdown([root])
    assert layers["background.dfs"] == pytest.approx(0.7)
    assert layers["client"] == pytest.approx(0.1)


def test_unowned_clock_charge_lands_in_background_seconds():
    anchor, other = Machine("anchor"), Machine("other")
    tracer(anchor, other)
    with root_span("op.put", anchor) as root:
        other.clock.advance(0.3)
    assert root.self_seconds == 0.0
    assert root.background_seconds == pytest.approx(0.3)


def test_ancestor_clock_charge_credits_the_owning_span():
    # A machine can play two roles at once: a replica write hosted on the
    # client's machine, charged while a server-side span is innermost,
    # extends the client root's duration — so it must be the root's self
    # time, not the inner span's background time.
    client, server = Machine("c"), Machine("s")
    tracer(client, server)
    with root_span("op.put", client) as root:
        with span("dfs.append", server) as inner:
            client.clock.advance(0.2)
    assert root.self_seconds == pytest.approx(0.2)
    assert inner.background_seconds == 0.0
    assert coverage(root) == pytest.approx(1.0)


# -- trace identity --------------------------------------------------------


def test_each_root_starts_a_fresh_trace():
    machine = Machine("m0")
    installed = tracer(machine)
    with root_span("op.put", machine):
        pass
    with root_span("op.get", machine):
        pass
    ids = {root.trace_id for root in installed.trace_log.traces()}
    assert len(ids) == 2


def test_root_span_degrades_to_child_inside_open_trace():
    machine = Machine("m0")
    installed = tracer(machine)
    with root_span("op.put", machine) as outer:
        with root_span("compaction.round", machine) as inner:
            pass
    assert inner.trace_id == outer.trace_id
    assert not inner.root
    assert installed.trace_log.traces() == [outer]


def test_exception_tags_span_and_still_closes_it():
    machine = Machine("m0")
    installed = tracer(machine)
    with pytest.raises(RuntimeError):
        with root_span("op.get", machine) as root:
            raise RuntimeError("boom")
    assert root.closed
    assert root.attrs["error"] == "RuntimeError"
    assert installed.open_spans == 0


def test_root_latency_recorded_in_histogram():
    machine = Machine("m0")
    installed = tracer(machine)
    with root_span("op.get", machine):
        machine.clock.advance(0.2)
    hist = installed.histograms.get("latency.op.get")
    assert hist is not None
    assert hist.count == 1
    assert hist.percentile(0.5) == pytest.approx(0.2)


# -- analysis --------------------------------------------------------------


def test_trace_log_ring_evicts_oldest():
    machine = Machine("m0")
    installed = tracer(machine, ring=2)
    for _ in range(3):
        with root_span("op.put", machine):
            machine.clock.advance(0.01)
    assert len(installed.trace_log) == 2
    assert installed.trace_log.appended == 3


def test_evicted_trace_is_freed_without_the_cycle_collector():
    # A closed span drops its parent link, so a finished trace is a tree
    # that reference counting frees as soon as the ring lets it go.
    client, server = Machine("client"), Machine("server")
    installed = tracer(client, server, ring=1, slow_samples=0)

    def one_trace():
        with root_span("op.get", client):
            with span("rpc.server", server):
                with span("log.append", server):
                    server.clock.advance(0.1)

    gc.collect()
    gc.disable()
    try:
        one_trace()
        first = installed.trace_log.traces()[0].trace_id
        one_trace()  # evicts the first trace from the one-slot ring
        left = [o for o in gc.get_objects() if isinstance(o, Span) and o.trace_id == first]
    finally:
        gc.enable()
    assert left == []


def test_trace_log_rejects_empty_ring():
    with pytest.raises(ValueError):
        TraceLog(0)


def test_slow_op_sampler_keeps_the_n_slowest():
    sampler = SlowOpSampler(per_op=2)
    for latency, tag in ((0.1, "a"), (0.5, "b"), (0.3, "c"), (0.05, "d")):
        sampler.offer("op.get", latency, tag)
    assert sampler.worst("op.get") == ["b", "c"]
    assert sampler.op_names() == ["op.get"]
    assert sampler.worst("op.scan") == []


def test_span_layer_mapping():
    assert span_layer("op.get") == "client"
    assert span_layer("client.retry") == "client"
    assert span_layer("rpc.server") == "rpc"
    assert span_layer("ts.read") == "server"
    assert span_layer("txn.commit") == "txn"
    assert span_layer("log.append") == "wal"
    assert span_layer("dfs.read") == "dfs"
    assert span_layer("compaction.plan") == "compaction"
    assert span_layer("recovery.redo") == "recovery"
    assert span_layer("weird") == "other"


def test_where_did_time_go_percentages_sum_to_hundred():
    client, server = Machine("c"), Machine("s")
    installed = tracer(client, server)
    with root_span("op.get", client):
        client.clock.advance(0.1)
        with span("ts.read", server):
            server.clock.advance(0.3)
    report = where_did_time_go(installed.trace_log.traces())
    assert report["traces"] == 1
    assert report["total_seconds"] == pytest.approx(0.4)
    assert report["percent_sum"] == pytest.approx(100.0)
    assert report["coverage"] == pytest.approx(1.0)
    assert report["layer_percent"]["server"] == pytest.approx(75.0)


def test_format_time_report_renders_every_section():
    machine = Machine("m0")
    installed = tracer(machine)
    with root_span("op.put", machine):
        machine.clock.advance(0.2)
    text = format_time_report(installed)
    assert "where did the time go" in text
    assert "latency histograms" in text
    assert "slowest traces" in text
    assert "op.put" in text


def test_format_time_report_empty_trace_log():
    assert format_time_report(Tracer()) == "trace log empty: no closed traces"


# -- export ----------------------------------------------------------------


def test_chrome_trace_event_shape(tmp_path):
    client, server = Machine("c"), Machine("s")
    installed = tracer(client, server)
    with root_span("op.get", client) as root:
        client.clock.advance(0.1)
        with span("rpc.server", server):
            server.clock.advance(0.4)
    document = chrome_trace(installed.trace_log.traces())
    events = document["traceEvents"]
    assert len(events) == 2
    rpc = next(e for e in events if e["name"] == "rpc.server")
    assert rpc["ph"] == "X"
    assert rpc["pid"] == "s"
    assert rpc["tid"] == f"trace-{root.trace_id}"
    assert rpc["dur"] == pytest.approx(0.4e6)
    assert {e["tid"] for e in events} == {f"trace-{root.trace_id}"}

    path = tmp_path / "trace.json"
    assert export_chrome_trace(installed, str(path)) == 2
    loaded = json.loads(path.read_text())
    assert loaded["displayTimeUnit"] == "ms"
    assert len(loaded["traceEvents"]) == 2
