"""Transaction lifecycle tests: begin/read/write/commit/abort."""

import pytest

from repro.errors import TransactionStateError, ValidationConflict
from repro.txn.transaction import TxnStatus
from tests.txn.helpers import open_txn_sessions


def test_read_only_always_commits(db):
    db.put("events", b"000000000001", {"payload": {"body": b"v"}})
    txn = db.begin()
    assert txn.read("events", b"000000000001", "payload") == {"body": b"v"}
    commit_ts = txn.commit()
    assert txn.status is TxnStatus.COMMITTED
    assert commit_ts == txn.read_ts
    assert db.txn_manager.read_only_commits == 1


def test_update_transaction_visible_after_commit(db):
    txn = db.begin()
    txn.write("events", b"000000000002", "payload", {"body": b"new"})
    # Not visible before commit.
    assert db.get("events", b"000000000002", "payload") is None
    txn.commit()
    assert db.get("events", b"000000000002", "payload") == {"body": b"new"}


def test_read_your_own_writes(db):
    txn = db.begin()
    txn.write("events", b"000000000003", "payload", {"body": b"mine"})
    assert txn.read("events", b"000000000003", "payload") == {"body": b"mine"}


def test_read_your_own_delete(db):
    db.put("events", b"000000000004", {"payload": {"body": b"v"}})
    txn = db.begin()
    txn.delete("events", b"000000000004", "payload")
    assert txn.read("events", b"000000000004", "payload") is None


def test_abort_discards_writes(db):
    txn = db.begin()
    txn.write("events", b"000000000005", "payload", {"body": b"gone"})
    txn.abort()
    assert txn.status is TxnStatus.ABORTED
    assert db.get("events", b"000000000005", "payload") is None


def test_operations_after_commit_rejected(db):
    txn = db.begin()
    txn.write("events", b"000000000006", "payload", {"body": b"v"})
    txn.commit()
    with pytest.raises(TransactionStateError):
        txn.read("events", b"000000000006", "payload")
    with pytest.raises(TransactionStateError):
        txn.commit()


def test_operations_after_abort_rejected(db):
    txn = db.begin()
    txn.abort()
    with pytest.raises(TransactionStateError):
        txn.write("events", b"k", "payload", {"body": b"v"})


def test_transactional_delete_applies_at_commit(db):
    db.put("events", b"000000000007", {"payload": {"body": b"v"}})
    txn = db.begin()
    txn.delete("events", b"000000000007", "payload")
    assert db.get("events", b"000000000007", "payload") is not None
    txn.commit()
    assert db.get("events", b"000000000007", "payload") is None


def test_commit_timestamps_order_transactions(db):
    t1 = db.begin()
    t1.write("events", b"000000000008", "payload", {"body": b"1"})
    ts1 = t1.commit()
    t2 = db.begin()
    t2.write("events", b"000000000008", "payload", {"body": b"2"})
    ts2 = t2.commit()
    assert ts2 > ts1
    # Historical read sees the first version.
    assert db.get("events", b"000000000008", "payload", as_of=ts1) == {"body": b"1"}


def test_conflict_abort_then_restart_succeeds(db):
    db.put("events", b"000000000009", {"payload": {"body": b"base"}})
    t1 = db.begin()
    t2 = db.begin()
    t1.read("events", b"000000000009", "payload")
    t2.read("events", b"000000000009", "payload")
    t1.write("events", b"000000000009", "payload", {"body": b"t1"})
    t2.write("events", b"000000000009", "payload", {"body": b"t2"})
    t1.commit()
    with pytest.raises(ValidationConflict):
        t2.commit()
    # Paper: failed validation restarts the transaction.
    t2b = db.txn_manager.restart(t2)
    assert t2b.restarts == 1
    t2b.read("events", b"000000000009", "payload")
    t2b.write("events", b"000000000009", "payload", {"body": b"t2-retry"})
    t2b.commit()
    assert db.get("events", b"000000000009", "payload") == {"body": b"t2-retry"}


def test_locks_released_after_commit_and_abort(db):
    t1 = db.begin()
    t1.write("events", b"000000000010", "payload", {"body": b"a"})
    t1.commit()
    t2 = db.begin()
    t2.write("events", b"000000000010", "payload", {"body": b"b"})
    t2.commit()  # would deadlock if t1's locks leaked
    assert db.get("events", b"000000000010", "payload") == {"body": b"b"}


def test_multi_record_transaction_atomic_visibility(db):
    txn = db.begin()
    txn.write("events", b"000000000011", "payload", {"body": b"a"})
    txn.write("events", b"000000000012", "payload", {"body": b"b"})
    txn.commit()
    assert db.get("events", b"000000000011", "payload") == {"body": b"a"}
    assert db.get("events", b"000000000012", "payload") == {"body": b"b"}


def test_abort_rate_metric(db):
    db.put("events", b"000000000013", {"payload": {"body": b"base"}})
    t1, t2 = db.begin(), db.begin()
    for t in (t1, t2):
        t.read("events", b"000000000013", "payload")
        t.write("events", b"000000000013", "payload", {"body": b"x"})
    t1.commit()
    with pytest.raises(ValidationConflict):
        t2.commit()
    assert db.txn_manager.commits == 1
    assert db.txn_manager.aborts == 1
    assert db.txn_manager.abort_rate == 0.5


def test_every_ended_transaction_closes_its_session(db):
    db.put("events", b"000000000014", {"payload": {"body": b"base"}})
    winner, loser, dropped = db.begin(), db.begin(), db.begin()
    for txn in (winner, loser):
        txn.read("events", b"000000000014", "payload")
        txn.write("events", b"000000000014", "payload", {"body": b"x"})
    winner.commit()
    with pytest.raises(ValidationConflict):
        loser.commit()  # first committer wins
    dropped.write("events", b"000000000015", "payload", {"body": b"y"})
    dropped.abort()
    assert open_txn_sessions(db) == []
