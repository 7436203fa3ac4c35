"""Property test of routing by bisect: for any disjoint tablet ranges (with
gaps or without, the last one bounded or not) and any key (inside a range,
in a gap, on a boundary, before the first or past the last tablet),
:class:`TabletRouter` answers as the linear walk over ``Tablet.covers`` it
replaced — and every router built on it (the server's ``_route``, the
master's ``locate``, the catalog's ``tablet_for``, a follower host's and its
log tailer's) raises ``TabletNotFound``, answers "" or redirects exactly where
the walk finds nothing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.master import SharedCatalog
from repro.core.partition import KeyRange
from repro.core.schema import ColumnGroup, TableSchema
from repro.core.tablet import Tablet, TabletId, TabletRouter
from repro.dfs.filesystem import DFS
from repro.errors import FollowerLaggingError
from repro.sim.machine import Machine

SCHEMA = TableSchema("t", "id", (ColumnGroup("g", ("v",)),))

key_bytes = st.binary(max_size=3)


@st.composite
def layouts(draw):
    """Tablets over sorted distinct cut points; each gap between cuts is a
    tablet or a hole, and the last tablet may run to +infinity."""
    cuts = sorted(draw(st.sets(key_bytes, min_size=1, max_size=8)))
    unbounded = draw(st.booleans())
    ranges = [KeyRange(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
    if unbounded:
        ranges.append(KeyRange(cuts[-1], None))
    holes = draw(st.lists(st.booleans(), min_size=len(ranges), max_size=len(ranges)))
    kept = [r for r, hole in zip(ranges, holes) if not hole] or ranges[:1]
    tablets = [Tablet(TabletId("t", i), r, SCHEMA) for i, r in enumerate(kept)]
    order = draw(st.permutations(tablets))
    probes = draw(st.lists(key_bytes, max_size=10))
    probes += cuts + [cuts[-1] + b"\xff", b""]
    return list(order), tablets, probes


def walk(tablets, key):
    return next((tablet for tablet in tablets if tablet.covers(key)), None)


@settings(max_examples=300, deadline=None)
@given(layouts())
def test_the_router_answers_as_the_linear_walk(layout):
    order, tablets, probes = layout
    router = TabletRouter((tablet, tablet) for tablet in order)
    assert list(router) == sorted(tablets, key=lambda t: t.key_range.start)
    for key in probes:
        assert router.find(key) is walk(tablets, key)


@settings(max_examples=100, deadline=None)
@given(layouts())
def test_the_catalog_answers_as_the_linear_walk(layout):
    order, tablets, probes = layout
    catalog = SharedCatalog()
    catalog.tablets["t"] = TabletRouter((tablet, tablet) for tablet in order)
    for key in probes:
        expected = walk(tablets, key)
        assert catalog.tablet_for("t", key) == (
            "" if expected is None else str(expected.tablet_id)
        )
    assert catalog.tablet_for("missing", b"k") == ""


def test_the_server_route_raises_where_the_walk_finds_nothing(dfs, machines):
    from repro.coordination.tso import TimestampOracle
    from repro.coordination.znodes import CoordinationService
    from repro.core.tablet_server import TabletServer
    from repro.errors import TabletNotFound

    server = TabletServer(
        "ts-0", machines[0], dfs, TimestampOracle(CoordinationService())
    )
    left = Tablet(TabletId("t", 0), KeyRange(b"b", b"d"), SCHEMA)
    right = Tablet(TabletId("t", 1), KeyRange(b"f", None), SCHEMA)
    server.assign_tablet(right)
    server.assign_tablet(left)
    for key, expected in [
        (b"a", None), (b"b", left), (b"c", left), (b"d", None), (b"e", None),
        (b"f", right), (b"zz", right),
    ]:
        if expected is None:
            with pytest.raises(TabletNotFound):
                server._route("t", key)
        else:
            assert server._route("t", key) is expected


@settings(max_examples=100, deadline=None)
@given(layouts(), st.data())
def test_follower_routing_answers_as_the_linear_walk(layout, data):
    from repro.coordination.tso import TimestampOracle
    from repro.coordination.znodes import CoordinationService
    from repro.core.tablet_server import TabletServer

    order, tablets, probes = layout
    machines = [Machine(f"node-{i}") for i in range(2)]
    server = TabletServer(
        "ts-0", machines[0], DFS(machines, replication=2),
        TimestampOracle(CoordinationService()),
    )
    # Another table's replica on the same owner keeps the tailer alive.
    other = Tablet(TabletId("u", 0), KeyRange(b"", None), SCHEMA)
    for tablet in [*order, other]:
        server.replicas.follow(tablet, "ts-1", 0)
    drops = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    for tablet, drop in zip(order, drops):
        if drop:
            server.replicas.unfollow(tablet.tablet_id)
    kept = [tablet for tablet, drop in zip(order, drops) if not drop]
    tailer = server.replicas.tailers["ts-1"]
    for key in probes:
        expected = walk(kept, key)
        member = tailer._member("t", key)
        assert (member and member.tablet) is expected
        if expected is None:
            with pytest.raises(FollowerLaggingError):
                server.replicas._follower_for("t", key)
        else:
            assert server.replicas._follower_for("t", key).tablet is expected
        assert tailer._member("u", key).tablet is other
        assert tailer._member("missing", key) is None
