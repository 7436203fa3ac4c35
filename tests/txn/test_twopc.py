"""Two-phase commit tests for transactions spanning tablet servers."""

import pytest

from repro.errors import TransactionAborted
from repro.wal.record import RecordType
from tests.txn.helpers import open_txn_sessions


def _keys_on_distinct_servers(db, count=2):
    """Find keys owned by different tablet servers."""
    master = db.cluster.master
    chosen = []
    owners = set()
    for step in range(0, 2_000_000_000, 123_456_789):
        key = str(step).zfill(12).encode()
        owner, _ = master.locate("events", key)
        if owner not in owners:
            owners.add(owner)
            chosen.append(key)
        if len(chosen) == count:
            return chosen
    raise RuntimeError("could not find keys on distinct servers")


def test_distributed_commit_all_visible(db):
    k1, k2 = _keys_on_distinct_servers(db)
    txn = db.begin()
    txn.write("events", k1, "payload", {"body": b"left"})
    txn.write("events", k2, "payload", {"body": b"right"})
    txn.commit()
    assert db.get("events", k1, "payload") == {"body": b"left"}
    assert db.get("events", k2, "payload") == {"body": b"right"}


def test_commit_record_on_every_participant(db):
    k1, k2 = _keys_on_distinct_servers(db)
    txn = db.begin()
    txn.write("events", k1, "payload", {"body": b"a"})
    txn.write("events", k2, "payload", {"body": b"b"})
    txn.commit()
    master = db.cluster.master
    for key in (k1, k2):
        server = master.server(master.locate("events", key)[0])
        kinds = [r.record_type for _, r in server.log.scan_all()]
        assert RecordType.COMMIT in kinds


def test_participant_failure_aborts_whole_transaction(db):
    k1, k2 = _keys_on_distinct_servers(db)
    txn = db.begin()
    txn.write("events", k1, "payload", {"body": b"a"})
    txn.write("events", k2, "payload", {"body": b"b"})
    master = db.cluster.master
    victim_name = master.locate("events", k2)[0]
    # Kill the second participant after the read phase, before commit.
    master.server(victim_name).serving = False
    with pytest.raises(TransactionAborted):
        txn.commit()
    master.server(victim_name).serving = True
    # Neither write is visible: atomicity across servers.
    assert db.get("events", k1, "payload") is None
    assert open_txn_sessions(db) == []


def test_single_server_transaction_skips_2pc(db):
    """Entity-group-local transactions must not pay 2PC messages."""
    master = db.cluster.master
    key = b"000000000001"
    owner, tablet = master.locate("events", key)
    neighbour = tablet.key_range.start or b"000000000000"
    server = master.server(owner)
    txn = db.begin()
    txn.write("events", key, "payload", {"body": b"1"})
    txn.write("events", neighbour, "payload", {"body": b"2"})
    before = server.machine.counters.get("net.messages")
    txn.commit()
    # One batch append == one replication message, no prepare round.
    assert server.machine.counters.get("net.messages") - before == 1


def test_abort_records_written_on_prepared_participants(db):
    k1, k2 = _keys_on_distinct_servers(db)
    master = db.cluster.master
    sorted_keys = sorted([k1, k2], key=lambda k: master.locate("events", k)[0])
    first_name = master.locate("events", sorted_keys[0])[0]
    second_name = master.locate("events", sorted_keys[1])[0]
    txn = db.begin()
    for key in sorted_keys:
        txn.write("events", key, "payload", {"body": b"x"})
    # The second participant dies exactly at its prepare step (validation
    # already passed), so the first participant has prepared and must log
    # an abort record.
    from repro.errors import ServerDownError

    second_server = master.server(second_name)

    def failing_prepare(records):
        raise ServerDownError("crashed during prepare")

    second_server.append_transactional = failing_prepare
    with pytest.raises(TransactionAborted):
        txn.commit()
    first_server = master.server(first_name)
    kinds = [r.record_type for _, r in first_server.log.scan_all()]
    assert RecordType.ABORT in kinds
