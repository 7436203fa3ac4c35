"""Model-based property tests: the B-link tree against a dict oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.blink import BLinkTreeIndex
from repro.index.interface import MultiversionIndex
from repro.wal.record import LogPointer

keys = st.binary(min_size=1, max_size=8)
timestamps = st.integers(min_value=1, max_value=1000)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys, timestamps),
        st.tuples(st.just("delete"), keys),
    ),
    max_size=120,
)


def apply_ops(ops):
    tree = BLinkTreeIndex(order=4)
    model: dict[tuple[bytes, int], LogPointer] = {}
    counter = 0
    for op in ops:
        if op[0] == "insert":
            _, key, ts = op
            counter += 1
            pointer = LogPointer(1, counter, 1)
            tree.insert(key, ts, pointer)
            model[(key, ts)] = pointer
        else:
            _, key = op
            tree.delete_key(key)
            for composite in [c for c in model if c[0] == key]:
                del model[composite]
    return tree, model


@given(operations)
@settings(max_examples=150, deadline=None)
def test_tree_matches_model(ops):
    tree, model = apply_ops(ops)
    assert len(tree) == len(model)
    entries = {(e.key, e.timestamp): e.pointer for e in tree.entries()}
    assert entries == model


@given(operations)
@settings(max_examples=100, deadline=None)
def test_structural_invariants_always_hold(ops):
    tree, _ = apply_ops(ops)
    tree.check_invariants()


@given(operations, keys)
@settings(max_examples=100, deadline=None)
def test_lookup_latest_matches_model(ops, probe):
    tree, model = apply_ops(ops)
    expected = max(
        (ts for (key, ts) in model if key == probe), default=None
    )
    got = tree.lookup_latest(probe)
    if expected is None:
        assert got is None
    else:
        assert got.timestamp == expected


@given(operations, keys, timestamps)
@settings(max_examples=100, deadline=None)
def test_lookup_asof_matches_model(ops, probe, asof):
    tree, model = apply_ops(ops)
    expected = max(
        (ts for (key, ts) in model if key == probe and ts <= asof), default=None
    )
    got = tree.lookup_asof(probe, asof)
    if expected is None:
        assert got is None
    else:
        assert got.timestamp == expected


@given(operations, keys, keys)
@settings(max_examples=100, deadline=None)
def test_range_scan_matches_model(ops, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    tree, model = apply_ops(ops)
    expected = sorted((key, ts) for (key, ts) in model if lo <= key < hi)
    got = [(e.key, e.timestamp) for e in tree.range_scan(lo, hi)]
    assert got == expected


# The leaf walk against the generic walk.  Few distinct keys and timestamps,
# so keys carry several versions across leaf splits, and pointers in a few
# segments, so a repoint's retired set drops some of them.
few_keys = st.text(alphabet="abcdef", min_size=1, max_size=2).map(str.encode)
walk_insert = st.tuples(st.just("insert"), few_keys, st.integers(0, 12), st.integers(1, 6))
walk_ops = st.lists(
    st.one_of(
        *[walk_insert] * 8,
        st.tuples(st.just("delete"), few_keys),
        st.tuples(
            st.just("repoint"),
            st.lists(st.integers(0, 1000), max_size=6),
            st.frozensets(st.integers(1, 6), max_size=1),
        ),
    ),
    min_size=20,
    max_size=80,
)
# b"" starts at the first key, b"g" lies past the last one; lo and hi are
# drawn independently (leaning to the whole range), so ranges are also empty
# and inverted.
bounds = st.one_of(few_keys, st.just(b""), st.just(b"g"))


def build_walk_tree(ops) -> BLinkTreeIndex:
    tree = BLinkTreeIndex(order=4)
    for n, op in enumerate(ops):
        if op[0] == "insert":
            _, key, ts, file_no = op
            tree.insert(key, ts, LogPointer(file_no, n, 1))
        elif op[0] == "delete":
            tree.delete_key(op[1])
        else:
            _, picks, retired = op
            held = [(key, ts) for key, ts, _ in tree.rows()]
            moved = {held[i % len(held)]: LogPointer(5, n, i) for i in picks if held}
            tree.repoint(moved, retired)
    return tree


@given(
    walk_ops,
    st.one_of(st.just(b""), bounds),
    st.one_of(st.just(b"g"), bounds),
    st.one_of(st.none(), st.integers(-1, 14)),
)
@settings(max_examples=100, deadline=None)
def test_latest_in_range_matches_the_generic_walk(ops, lo, hi, as_of):
    tree = build_walk_tree(ops)
    got = list(tree.latest_in_range(lo, hi, as_of=as_of))
    assert got == list(MultiversionIndex.latest_in_range(tree, lo, hi, as_of=as_of))
    assert [e.key for e in got] == sorted({e.key for e in got})


# One descent and one step back against the walk over every version, for
# every key held and two that are not, at every as_of from below the oldest
# timestamp (-1) to above the newest (14).  Retired and deleted entries leave
# leaves that start past a key's older versions, which sends the descent on
# its walk from (key, 0).
@given(walk_ops)
@settings(max_examples=150, deadline=None)
def test_version_lookups_match_the_version_walk(ops):
    tree = build_walk_tree(ops)
    for probe in {key for key, _, _ in tree.rows()} | {b"", b"g"}:
        walked = tree.versions(probe)
        assert tree.lookup_latest(probe) == (walked[-1] if walked else None)
        for as_of in range(-1, 15):
            visible = [entry for entry in walked if entry.timestamp <= as_of]
            assert tree.lookup_asof(probe, as_of) == (visible[-1] if visible else None)
