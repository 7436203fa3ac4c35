"""Deadline budgets across unsynchronized clock domains."""

import pytest

from repro.errors import DeadlineExceededError
from repro.sim.clock import SimClock
from repro.sim.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)


def test_budget_counts_down_with_the_clock():
    clock = SimClock()
    deadline = Deadline.after(clock, 1.0)
    clock.advance(0.4)
    assert deadline.remaining() == pytest.approx(0.6)
    assert not deadline.expired


def test_expiry_and_check():
    clock = SimClock()
    deadline = Deadline.after(clock, 0.5)
    clock.advance(0.5)
    assert deadline.expired
    with pytest.raises(DeadlineExceededError):
        deadline.check("tablet read")


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        Deadline(SimClock(), -0.1)


def test_rebase_transfers_remaining_budget():
    # The cluster's clocks are unsynchronized: the server's clock may be
    # far ahead of the client's.  Rebasing must transfer the *remaining
    # budget*, not compare absolute instants.
    client = SimClock()
    server = SimClock()
    server.advance(100.0)  # wildly skewed
    deadline = Deadline.after(client, 1.0)
    client.advance(0.3)
    deadline.rebase(server)
    assert deadline.remaining() == pytest.approx(0.7)
    server.advance(0.2)
    assert deadline.remaining() == pytest.approx(0.5)
    deadline.rebase(client)  # hop back: consumption on both clocks kept
    assert deadline.remaining() == pytest.approx(0.5)


def test_rebase_preserves_expiry():
    client = SimClock()
    server = SimClock()
    deadline = Deadline.after(client, 0.2)
    client.advance(0.3)
    deadline.rebase(server)
    assert deadline.expired


def test_ambient_scope_arms_and_restores():
    clock = SimClock()
    deadline = Deadline.after(clock, 1.0)
    assert current_deadline() is None
    check_deadline()  # no-op without a scope
    with deadline_scope(deadline):
        assert current_deadline() is deadline
        check_deadline("inner")
    assert current_deadline() is None


def test_ambient_scope_none_is_passthrough():
    with deadline_scope(None):
        assert current_deadline() is None


def test_scopes_nest():
    clock = SimClock()
    outer = Deadline.after(clock, 1.0)
    inner = Deadline.after(clock, 0.5)
    with deadline_scope(outer):
        with deadline_scope(inner):
            assert current_deadline() is inner
        assert current_deadline() is outer


def test_check_deadline_raises_inside_scope():
    clock = SimClock()
    deadline = Deadline.after(clock, 0.1)
    with deadline_scope(deadline):
        clock.advance(0.2)
        with pytest.raises(DeadlineExceededError):
            check_deadline("log read")
    assert current_deadline() is None  # scope unwound despite the raise


def test_a_none_scope_inside_an_armed_one_leaves_it_ambient():
    clock = SimClock()
    outer = Deadline.after(clock, 1.0)
    with deadline_scope(outer):
        with deadline_scope(None) as inner:
            assert inner is None
            assert current_deadline() is outer
            with deadline_scope(None):
                assert current_deadline() is outer
            assert current_deadline() is outer
        assert current_deadline() is outer
    assert current_deadline() is None
