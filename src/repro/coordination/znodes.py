"""The znode tree: hierarchical nodes with sessions, ephemerals and watches.

This is the Zookeeper data model reduced to what the recipes in this
package need: persistent and ephemeral znodes, sequential znodes (used by
both leader election and fair locks), one-shot watches on existence and
children, and session expiry that deletes ephemerals and fires watches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro.errors import (
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
    SessionExpiredError,
)

WatchCallback = Callable[[str, str], None]  # (event, path)


@dataclass
class ZNodeStat:
    """Metadata returned alongside znode data."""

    version: int
    ephemeral_owner: int | None
    num_children: int


@dataclass
class _ZNode:
    data: bytes = b""
    version: int = 0
    ephemeral_owner: int | None = None
    children: dict[str, "_ZNode"] = field(default_factory=dict)
    sequence_counter: int = 0


class Session:
    """A client session; ephemeral znodes die with it."""

    _ids = itertools.count(1)

    def __init__(self, service: "CoordinationService", owner: str) -> None:
        self.session_id = next(Session._ids)
        self.owner = owner
        self.expired = False
        self._service = service

    def expire(self) -> None:
        """Expire the session: its ephemerals are deleted and watches fire."""
        if not self.expired:
            self.expired = True
            self._service._expire_session(self.session_id)

    def __repr__(self) -> str:
        state = "expired" if self.expired else "live"
        return f"Session(id={self.session_id}, owner={self.owner}, {state})"


class CoordinationService:
    """In-process Zookeeper: znode tree + sessions + watches.

    The service itself is assumed reliable (the real deployment runs a
    replicated ensemble); what the rest of the system exercises is its
    *API contract*, which this class reproduces.
    """

    def __init__(self) -> None:
        self._root = _ZNode()
        self._sessions: dict[int, Session] = {}
        # path -> list of (event filter, callback); one-shot like ZK watches
        self._watches: dict[str, list[WatchCallback]] = {}

    # -- sessions -------------------------------------------------------------

    def connect(self, owner: str) -> Session:
        """Open a session for a client identified by ``owner``."""
        session = Session(self, owner)
        self._sessions[session.session_id] = session
        return session

    def _check_session(self, session: Session) -> None:
        if session.expired:
            raise SessionExpiredError(f"session {session.session_id} expired")

    def _expire_session(self, session_id: int) -> None:
        self._sessions.pop(session_id, None)
        for path in self._ephemeral_paths(session_id):
            self._delete_no_checks(path)
            self._fire(path, "deleted")

    def _ephemeral_paths(self, session_id: int) -> list[str]:
        found: list[str] = []

        def walk(node: _ZNode, path: str) -> None:
            for name, child in node.children.items():
                child_path = f"{path}/{name}"
                if child.ephemeral_owner == session_id:
                    found.append(child_path)
                else:
                    walk(child, child_path)

        walk(self._root, "")
        return found

    # -- path helpers -----------------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=1024)
    def _split(path: str) -> tuple[str, ...]:
        # Pure, so a path validated once (the TSO's, on every timestamp)
        # is not re-split; an invalid one raises and is never cached.
        # Nodes are still walked on every lookup.
        if not path.startswith("/") or path == "/":
            raise ValueError(f"invalid znode path {path!r}")
        return tuple(part for part in path.split("/") if part)

    def _lookup(self, path: str) -> _ZNode:
        node = self._root
        for part in self._split(path):
            child = node.children.get(part)
            if child is None:
                raise NoNodeError(path)
            node = child
        return node

    def _lookup_parent(self, path: str) -> tuple[_ZNode, str]:
        parts = self._split(path)
        node = self._root
        for part in parts[:-1]:
            child = node.children.get(part)
            if child is None:
                raise NoNodeError("/" + "/".join(parts[:-1]))
            node = child
        return node, parts[-1]

    # -- core operations ----------------------------------------------------------

    def create(
        self,
        session: Session,
        path: str,
        data: bytes = b"",
        *,
        ephemeral: bool = False,
        sequential: bool = False,
    ) -> str:
        """Create a znode; returns the actual path (suffixed if sequential).

        Raises:
            NodeExistsError: if a non-sequential path already exists.
            NoNodeError: if the parent is missing.
            SessionExpiredError: if the session has expired.
        """
        self._check_session(session)
        parent, name = self._lookup_parent(path)
        if sequential:
            seq = parent.sequence_counter
            parent.sequence_counter += 1
            name = f"{name}{seq:010d}"
            path = path + f"{seq:010d}"
        if name in parent.children:
            raise NodeExistsError(path)
        parent.children[name] = _ZNode(
            data=data,
            ephemeral_owner=session.session_id if ephemeral else None,
        )
        self._fire(path, "created")
        self._fire(self._parent_path(path), "children")
        return path

    def ensure_path(self, session: Session, path: str) -> None:
        """Create every missing ancestor of ``path`` plus ``path`` itself."""
        parts = self._split(path)
        current = ""
        for part in parts:
            current += f"/{part}"
            try:
                self.create(session, current)
            except NodeExistsError:
                continue

    def get(self, path: str) -> tuple[bytes, ZNodeStat]:
        """Return ``(data, stat)`` for ``path``."""
        node = self._lookup(path)
        return node.data, ZNodeStat(
            version=node.version,
            ephemeral_owner=node.ephemeral_owner,
            num_children=len(node.children),
        )

    def set(self, session: Session, path: str, data: bytes) -> int:
        """Replace the data of ``path``; returns the new version."""
        self._check_session(session)
        node = self._lookup(path)
        node.data = data
        node.version += 1
        self._fire(path, "changed")
        return node.version

    def exists(self, path: str) -> bool:
        """Whether ``path`` exists."""
        try:
            self._lookup(path)
            return True
        except NoNodeError:
            return False

    def get_children(self, path: str) -> list[str]:
        """Sorted child names of ``path``."""
        return sorted(self._lookup(path).children)

    def delete(self, session: Session, path: str) -> None:
        """Delete a childless znode.

        Raises:
            NotEmptyError: if the node still has children.
        """
        self._check_session(session)
        node = self._lookup(path)
        if node.children:
            raise NotEmptyError(path)
        self._delete_no_checks(path)
        self._fire(path, "deleted")
        self._fire(self._parent_path(path), "children")

    def _delete_no_checks(self, path: str) -> None:
        parent, name = self._lookup_parent(path)
        parent.children.pop(name, None)

    @staticmethod
    def _parent_path(path: str) -> str:
        head, _, _ = path.rpartition("/")
        return head or "/"

    # -- watches ------------------------------------------------------------------

    def watch(self, path: str, callback: WatchCallback) -> None:
        """Register a one-shot watch on ``path``.

        The callback receives ``(event, path)`` where event is one of
        ``created``, ``changed``, ``deleted`` or ``children`` and is then
        deregistered, matching Zookeeper's one-shot semantics.
        """
        self._watches.setdefault(path, []).append(callback)

    def _fire(self, path: str, event: str) -> None:
        callbacks = self._watches.pop(path, [])
        for callback in callbacks:
            callback(event, path)
