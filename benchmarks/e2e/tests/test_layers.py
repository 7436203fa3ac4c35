import pytest

from layers import LayerTracer
from repro.core.tablet_server import TabletServer
from repro.util import crc as crc_module


def test_self_time_is_busy_minus_children():
    tracer = LayerTracer()
    #              name  start busy parent op
    tracer.spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 1.5, 1, 0],
        ["b", 6.0, 3.0, 0, 0],
        ["a", 20.0, 2.0, -1, 1],
    ]
    assert tracer.self_times() == [3.0, 2.5, 1.5, 3.0, 2.0]
    layers = tracer.by_layer()
    assert layers["a"] == {"calls": 2, "host_self_ms": 5000.0, "host_ms": 12000.0}
    assert layers["b"] == {"calls": 2, "host_self_ms": 5500.0, "host_ms": 7000.0}
    assert tracer.root_seconds() == 12.0
    # self times of every span add up to the time inside top-level spans
    assert sum(tracer.self_times()) == tracer.root_seconds()


def test_wrapped_calls_nest_and_generators_count_only_resumed_time():
    tracer = LayerTracer()

    def leaf():
        return sum(range(2000))

    def numbers():
        for _ in range(3):
            yield wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_numbers = tracer.wrap("numbers", numbers)
    outer = tracer.wrap("outer", lambda: list(wrapped_numbers()))
    tracer.op_id = 7
    assert len(outer()) == 3
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "numbers", "leaf", "leaf", "leaf"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1, 1]
    assert all(span[4] == 7 for span in tracer.spans)
    own = tracer.self_times()
    assert all(value >= 0 for value in own)
    assert sum(own) == pytest.approx(tracer.root_seconds())
    tree = tracer.slowest_ops()[0]
    assert tree["op"] == 7
    assert [child["name"] for child in tree["spans"][0]["children"]] == ["numbers"]


def test_sealed_spans_stay_out_of_the_aggregates():
    tracer = LayerTracer()
    tracer.wrap("timed", lambda: None)()
    tracer.seal()
    tracer.wrap("idle", lambda: None)()
    assert list(tracer.by_layer()) == ["timed"]


def test_every_wrapper_is_removed():
    write = vars(TabletServer)["write"]
    crc32c = crc_module.crc32c
    tracer = LayerTracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert vars(TabletServer)["write"] is not write
            assert crc_module.crc32c is not crc32c
            assert crc_module.crc32c(b"123456789") == 0xE3069283
            raise RuntimeError("the traced run failed")
    assert vars(TabletServer)["write"] is write
    assert crc_module.crc32c is crc32c
    assert tracer.sums["util.crc.bytes"] == 9
