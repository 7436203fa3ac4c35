"""Shared helpers for the transaction tests."""


def open_txn_sessions(db) -> list:
    """Live coordination sessions a transaction opened, and the manager's
    own session table."""
    manager = db.txn_manager
    live = [
        s for s in manager._coordination._sessions.values() if s.owner.startswith("txn-")
    ]
    return live + list(manager._sessions.values())
