"""The history checker on hand-built histories: one per check it makes.

Each history is what a chaos run records — ops invoked and ended in
real-time order, their outcomes and the timestamps they learned — and
:meth:`History.check` returns the violations, each prefixed with its
class.
"""

from repro.chaos.history import History, WriteStatus, decode_value, encode_value

ACKED, ABORTED, INDETERMINATE = WriteStatus.ACKED, WriteStatus.ABORTED, WriteStatus.INDETERMINATE


def put(history, key, status=ACKED, ts=None, client="c"):
    """A single-record write by ``client``; returns its value."""
    op = history.invoke(client)
    value = op.write(key)
    history.end(op, status, commit_ts=ts)
    return value


def read(history, key, value, client="c", **learned):
    """A read by ``client`` (None: a follower probe or the read-back)."""
    op = history.invoke(client)
    op.reads[key] = value
    history.end(op, **learned)


def classes(violations):
    return [violation.split(":")[0] for violation in violations]


def back(build, values):
    """Build a history, read every key back as ``values`` (a dict, or
    one value for every key) after recovery, and check it."""
    history = History()
    build(history)
    history.read_back(lambda key: values.get(key) if isinstance(values, dict) else values)
    return classes(history.check())


# -- the durability cases, as read-back histories ---------------------------------


def test_value_roundtrip():
    assert decode_value(encode_value(42)) == 42
    assert decode_value(b"garbage") is None
    assert decode_value(b"s1234567x") is None
    assert decode_value(b"") is None


def test_sequence_numbers_are_unique_and_monotone():
    history = History()
    seqs = [history.next_value()[0] for _ in range(5)]
    assert seqs == sorted(set(seqs))


def test_acked_write_must_be_readable():
    def build(history):
        put(history, b"k", ts=1)

    assert back(build, encode_value(1)) == []
    assert back(build, None) == ["stale"]


def test_acked_write_must_not_be_shadowed_by_older_value():
    def build(history):
        put(history, b"k", ts=1)
        put(history, b"k", ts=2)

    assert back(build, encode_value(2)) == []
    assert back(build, encode_value(1)) == ["stale"]


def test_ghost_value_is_flagged():
    def build(history):
        put(history, b"k", ts=1)

    assert back(build, encode_value(999)) == ["ghost"]


def test_cleanly_aborted_write_must_stay_invisible():
    def build(history):
        put(history, b"k", ABORTED)

    assert back(build, None) == []
    assert back(build, encode_value(1)) == ["G1a"]


def test_indeterminate_write_may_go_either_way():
    def build(history):
        put(history, b"k", INDETERMINATE)

    assert back(build, encode_value(1)) == []
    assert back(build, None) == []


def test_retry_upgrades_indeterminate_to_acked():
    def build(history):
        op = history.invoke("c")
        op.write(b"k")
        history.end(op, INDETERMINATE)
        history.end(op, ACKED, commit_ts=1)

    # Now the write is a promise: losing it is a violation.
    assert back(build, None) == ["stale"]


def test_ack_never_downgraded():
    history = History()
    op = history.invoke("c")
    op.write(b"k")
    history.end(op, ACKED, commit_ts=1)
    history.end(op, INDETERMINATE)
    assert op.status is ACKED and op.commit_ts == 1


def test_indeterminate_txn_must_be_atomic():
    def build(history):
        op = history.invoke("c")
        op.write(b"a"), op.write(b"b")
        history.end(op, INDETERMINATE)

    a, b = encode_value(1), encode_value(2)
    assert back(build, {b"a": a, b"b": b}) == []
    assert back(build, {}) == []
    assert back(build, {b"a": a}) == ["torn"]


def test_acked_txn_members_checked_per_key():
    def build(history):
        op = history.invoke("c")
        op.write(b"a"), op.write(b"b")
        history.end(op, ACKED, read_ts=1, commit_ts=1)

    assert back(build, {b"a": encode_value(1)}) == ["stale"]


def test_counts_by_status():
    history = History()
    for status, ts in ((ACKED, 1), (ACKED, 2), (ABORTED, None), (INDETERMINATE, None)):
        put(history, b"k%d" % len(history.ops), status, ts)
    assert history.counts() == {"acked": 2, "aborted": 1, "indeterminate": 1}


# -- one history per check of the read rule ------------------------------------------


def test_g1a_an_aborted_writers_value_read_mid_run():
    history = History()
    put(history, b"k", ts=1)
    aborted = put(history, b"k", ABORTED)
    read(history, b"k", aborted, client="other")
    assert classes(history.check()) == ["G1a"]


def test_read_your_writes():
    history = History()
    old = put(history, b"k", ts=3, client="other")
    put(history, b"k", ts=5)
    read(history, b"k", old, client="other")  # its floor is 3: fine
    read(history, b"k", old)  # below the writer's own floor
    assert classes(history.check()) == ["session"]


def test_monotonic_reads():
    history = History()
    old = put(history, b"k", ts=3, client="w")
    new = put(history, b"k", ts=5, client="w")
    read(history, b"k", old)
    read(history, b"k", new)
    read(history, b"k", old)  # the floor is now 5
    assert classes(history.check()) == ["session"]


def test_a_follower_newer_than_its_watermark():
    history = History()
    old = put(history, b"k", ts=3)
    new = put(history, b"k", ts=4)
    read(history, b"k", old, client=None, snapshot=3)
    read(history, b"k", new, client=None, snapshot=3)
    assert classes(history.check()) == ["future"]


def test_a_follower_older_than_its_watermark():
    history = History()
    old = put(history, b"k", ts=3)
    put(history, b"k", ts=5)
    read(history, b"k", old, client=None, snapshot=4)
    read(history, b"k", old, client=None, snapshot=5)
    read(history, b"k", None, client=None, snapshot=2)  # nothing acked at 2
    assert classes(history.check()) == ["stale"]


def test_read_skew():
    """A transaction reads x before and y after another committed both:
    its snapshot holds the old x, so the new y is from its future."""
    history = History()
    put(history, b"x", ts=1), put(history, b"y", ts=2)
    reader = history.invoke("r")
    writer = history.invoke("w")
    writer.write(b"x")
    new_y = writer.write(b"y")
    history.end(writer, ACKED, read_ts=3, commit_ts=4)
    reader.reads[b"x"] = encode_value(1)
    reader.reads[b"y"] = new_y
    history.end(reader, ACKED, read_ts=3, commit_ts=3)  # read-only
    assert classes(history.check()) == ["future"]


def test_lost_update():
    """Two committed transactions that neither saw both wrote k."""
    history = History()
    first, second = history.invoke("a"), history.invoke("b")
    first.write(b"k"), second.write(b"k")
    history.end(first, ACKED, read_ts=5, commit_ts=7)
    history.end(second, ACKED, read_ts=6, commit_ts=8)
    later = history.invoke("c")
    later.write(b"k")
    history.end(later, ACKED, read_ts=9, commit_ts=9)  # saw both
    assert classes(history.check()) == ["P4"]
    assert history.summary["txns_checked"] == 3


def test_write_skew_passes_under_snapshot_isolation_only():
    """Each reads x and y and writes the one the other did not: allowed
    by snapshot isolation, a cycle under serializability."""
    history = History()
    put(history, b"x", ts=1), put(history, b"y", ts=2)
    first, second = history.invoke("a"), history.invoke("b")
    for op, key in ((first, b"x"), (second, b"y")):
        op.reads.update({b"x": encode_value(1), b"y": encode_value(2)})
        op.write(key)
    history.end(first, ACKED, read_ts=3, commit_ts=3)
    history.end(second, ACKED, read_ts=3, commit_ts=4)
    assert history.check() == []
    assert history.summary["txn_overlaps_on_key"] == 1
    assert classes(history.check(serializable=True)) == ["G2"]


def test_an_indeterminate_write_satisfies_a_read_only_where_real_time_allows():
    """A write whose timestamp no one learned lies between what real time
    bounds it by: after the ack that returned before it began, before the
    write that began after it returned."""
    history = History()
    put(history, b"k", ts=3)
    maybe = put(history, b"k", INDETERMINATE)
    put(history, b"k", ts=7)
    read(history, b"k", maybe, client=None, snapshot=6)  # it may be at 4..6
    read(history, b"k", maybe, client=None, snapshot=3)  # not at or below 3
    read(history, b"k", maybe, client=None, snapshot=8)  # shadowed by 7
    assert classes(history.check()) == ["future", "stale"]
