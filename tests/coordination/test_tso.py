"""Unit tests for the timestamp oracle."""

import pytest

from repro.coordination.tso import TimestampOracle
from repro.coordination.znodes import CoordinationService
from repro.errors import NoNodeError, SessionExpiredError


def test_timestamps_strictly_increase():
    tso = TimestampOracle(CoordinationService())
    values = [tso.next_timestamp() for _ in range(100)]
    assert values == sorted(values)
    assert len(set(values)) == 100


def test_starts_at_configured_value():
    tso = TimestampOracle(CoordinationService(), start=500)
    assert tso.next_timestamp() == 500


def test_current_peeks_without_allocating():
    tso = TimestampOracle(CoordinationService())
    peek = tso.current()
    assert tso.current() == peek
    assert tso.next_timestamp() == peek


def test_read_timestamp_covers_all_commits():
    tso = TimestampOracle(CoordinationService())
    commit = tso.next_timestamp()
    snapshot = tso.read_timestamp()
    assert commit < snapshot


def test_shared_oracle_across_handles():
    service = CoordinationService()
    a = TimestampOracle(service)
    b = TimestampOracle(service)
    assert a.next_timestamp() < b.next_timestamp()


def test_interleaved_handles_go_through_the_znode():
    """Every allocation, from either handle, is one ``get`` + ``set`` on
    the shared znode: its version moves by exactly one and a ``changed``
    watch fires — nothing is served from a handle-local copy."""
    service = CoordinationService()
    a = TimestampOracle(service)
    b = TimestampOracle(service)
    seen = []
    allocated = []
    for handle in (a, b, b, a, b, a):
        _, stat = service.get("/logbase/tso")
        service.watch("/logbase/tso", lambda event, path: seen.append((event, path)))
        allocated.append(handle.next_timestamp())
        _, after = service.get("/logbase/tso")
        assert after.version == stat.version + 1
    assert allocated == list(range(allocated[0], allocated[0] + 6))
    assert seen == [("changed", "/logbase/tso")] * 6


def test_expired_tso_session_cannot_allocate():
    tso = TimestampOracle(CoordinationService())
    tso.next_timestamp()
    tso._session.expire()
    with pytest.raises(SessionExpiredError):
        tso.next_timestamp()


@pytest.mark.parametrize("path", ["", "/", "logbase/tso", "relative"])
def test_lookup_of_an_invalid_path_raises_every_time(path):
    service = CoordinationService()
    for _ in range(2):  # a rejected path is not remembered as valid
        with pytest.raises(ValueError):
            service._lookup(path)


def test_lookup_of_a_missing_or_deleted_node_raises():
    service = CoordinationService()
    session = service.connect("test")
    for _ in range(2):
        with pytest.raises(NoNodeError):
            service._lookup("/logbase/tso")
    service.ensure_path(session, "/logbase/tso")
    assert service._lookup("/logbase/tso") is not None
    service.delete(session, "/logbase/tso")
    with pytest.raises(NoNodeError):
        service._lookup("/logbase/tso")
    with pytest.raises(NoNodeError):
        service.get("/logbase/tso")
