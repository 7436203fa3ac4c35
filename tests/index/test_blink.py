"""B-link-tree-specific tests: splits, structure, link invariants."""

import pytest

from repro.index.blink import BLinkTreeIndex
from repro.wal.record import LogPointer


def ptr(n: int) -> LogPointer:
    return LogPointer(1, n, 1)


def test_rejects_tiny_order():
    with pytest.raises(ValueError):
        BLinkTreeIndex(order=2)


def test_height_grows_with_splits():
    tree = BLinkTreeIndex(order=4)
    assert tree.height == 1
    for i in range(50):
        tree.insert(f"{i:04d}".encode(), 1, ptr(i))
    assert tree.height >= 3


def test_invariants_after_ascending_inserts():
    tree = BLinkTreeIndex(order=4)
    for i in range(200):
        tree.insert(f"{i:05d}".encode(), 1, ptr(i))
    tree.check_invariants()


def test_invariants_after_descending_inserts():
    tree = BLinkTreeIndex(order=4)
    for i in reversed(range(200)):
        tree.insert(f"{i:05d}".encode(), 1, ptr(i))
    tree.check_invariants()


def test_invariants_after_interleaved_inserts():
    tree = BLinkTreeIndex(order=4)
    import random

    rng = random.Random(11)
    keys = [f"{i:05d}".encode() for i in range(300)]
    rng.shuffle(keys)
    for i, key in enumerate(keys):
        tree.insert(key, i + 1, ptr(i))
    tree.check_invariants()
    assert len(tree) == 300


def test_leaf_chain_complete_after_splits():
    tree = BLinkTreeIndex(order=4)
    for i in range(100):
        tree.insert(f"{i:03d}".encode(), 1, ptr(i))
    keys = [entry.key for entry in tree.entries()]
    assert keys == [f"{i:03d}".encode() for i in range(100)]


def test_right_links_present_after_split():
    tree = BLinkTreeIndex(order=4)
    for i in range(10):
        tree.insert(f"{i}".encode(), 1, ptr(i))
    # Walk the leaf chain explicitly via right pointers.
    node = tree._root
    while not node.leaf:
        node = node.children[0]
    count = 0
    while node is not None:
        count += len(node.keys)
        if node.right is not None:
            assert node.high_key is not None
        node = node.right
    assert count == 10


def test_delete_then_invariants_hold():
    tree = BLinkTreeIndex(order=4)
    for i in range(100):
        tree.insert(f"{i:03d}".encode(), i % 3 + 1, ptr(i))
    for i in range(0, 100, 2):
        tree.delete_key(f"{i:03d}".encode())
    tree.check_invariants()
    assert tree.lookup_latest(b"001") is not None
    assert tree.lookup_latest(b"002") is None


def test_versions_spanning_multiple_leaves():
    tree = BLinkTreeIndex(order=4)
    for ts in range(1, 30):
        tree.insert(b"hot-key", ts, ptr(ts))
    assert [v.timestamp for v in tree.versions(b"hot-key")] == list(range(1, 30))
    assert tree.delete_key(b"hot-key") == 29
    assert tree.versions(b"hot-key") == []


def test_latest_in_range_walks_versions_across_leaves():
    # Ten keys of ten versions each: every key's run spans leaves at order 4.
    tree = BLinkTreeIndex(order=4)
    for ts in range(1, 11):
        for k in range(10):
            tree.insert(b"k%d" % k, ts, ptr(100 * k + ts))
    assert tree.height > 2
    latest = list(tree.latest_in_range(b"k2", b"k7"))
    assert [(e.key, e.timestamp, e.pointer) for e in latest] == [
        (b"k%d" % k, 10, ptr(100 * k + 10)) for k in range(2, 7)
    ]
    as_of = list(tree.latest_in_range(b"k2", b"k7", as_of=4))
    assert [(e.key, e.timestamp) for e in as_of] == [(b"k%d" % k, 4) for k in range(2, 7)]
    assert list(tree.latest_in_range(b"k2", b"k7", as_of=0)) == []
    assert list(tree.latest_in_range(b"k7", b"k2")) == []
    assert list(tree.latest_in_range(b"z", b"zz")) == []
