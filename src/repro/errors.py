"""Exception hierarchy for the LogBase reproduction.

Every package raises subclasses of :class:`LogBaseError` so callers can
catch one base type at API boundaries.  Errors are grouped by subsystem:
storage (DFS), log repository, index, coordination, transactions, and
cluster management.
"""

from __future__ import annotations


class LogBaseError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Distributed file system
# ---------------------------------------------------------------------------

class DFSError(LogBaseError):
    """Base class for distributed-file-system failures."""


class FileNotFoundInDFS(DFSError):
    """The requested path does not exist in the namenode's namespace."""


class FileAlreadyExists(DFSError):
    """Attempted to create a path that already exists."""


class FileClosedError(DFSError):
    """Attempted to write to a file handle that has been closed."""


class ReplicationError(DFSError):
    """Not enough live datanodes to satisfy the replication factor."""


class BlockCorruptionError(DFSError):
    """A block's checksum did not match its stored payload."""


class DataNodeDownError(DFSError):
    """The datanode addressed by a read or write is not alive."""


class ReplicaCorruptError(DFSError):
    """A replica failed checksum verification on the read path; the reader
    should fail over to another replica."""


class NetworkPartitionError(LogBaseError):
    """The destination machine is unreachable under the active network
    partition."""


class DeadlineExceededError(LogBaseError):
    """The operation's deadline expired before it could complete.

    Raised by deadline-aware paths (tablet server reads, log repository
    reads, DFS replica reads) instead of charging unbounded simulated
    time against a limping component.
    """


# ---------------------------------------------------------------------------
# Log repository
# ---------------------------------------------------------------------------

class LogError(LogBaseError):
    """Base class for log-repository failures."""


class CorruptLogRecord(LogError):
    """A log record failed checksum or framing validation while decoding."""


class InvalidLogPointer(LogError):
    """A log pointer addressed a segment or offset that does not exist."""


# ---------------------------------------------------------------------------
# Coordination service
# ---------------------------------------------------------------------------

class CoordinationError(LogBaseError):
    """Base class for coordination-service failures."""


class NodeExistsError(CoordinationError):
    """Attempted to create a znode path that already exists."""


class NoNodeError(CoordinationError):
    """The addressed znode path does not exist."""


class NotEmptyError(CoordinationError):
    """Attempted to delete a znode that still has children."""


class SessionExpiredError(CoordinationError):
    """The client session backing an ephemeral node has expired."""


class LockError(CoordinationError):
    """A distributed lock operation failed (e.g. releasing a lock that the
    caller does not hold)."""


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

class TransactionError(LogBaseError):
    """Base class for transaction failures."""


class TransactionAborted(TransactionError):
    """The transaction was aborted (validation conflict or explicit abort).

    Attributes:
        reason: human-readable explanation of the abort.
    """

    def __init__(self, reason: str = "aborted"):
        super().__init__(reason)
        self.reason = reason


class ValidationConflict(TransactionAborted):
    """MVOCC validation detected a write-write conflict with a concurrently
    committed transaction (first-committer-wins)."""


class TransactionStateError(TransactionError):
    """An operation was attempted in an illegal transaction state, e.g.
    reading after commit."""


# ---------------------------------------------------------------------------
# Cluster / tablet management
# ---------------------------------------------------------------------------

class ClusterError(LogBaseError):
    """Base class for cluster-management failures."""


class TabletNotFound(ClusterError):
    """No tablet covers the requested key for the requested table."""


class TableNotFound(ClusterError):
    """The requested table does not exist in the catalog."""


class TableAlreadyExists(ClusterError):
    """Attempted to create a table that already exists."""


class ServerDownError(ClusterError):
    """The tablet server addressed by a request has failed."""


class ServerOverloadedError(ClusterError):
    """The tablet server shed this request: its modelled in-flight queue
    is full (admission control).

    Attributes:
        retry_after: simulated seconds after which the server expects to
            have drained enough backlog to admit the request.
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class TabletRecoveringError(ClusterError):
    """The addressed tablet is owned by this server but its redo has not
    finished yet (fast recovery serves tablets as each one's replay
    completes).  Retryable: the client's existing backoff covers the
    remaining recovery window."""


class TabletMigratingError(ClusterError):
    """The addressed tablet is mid-handoff: either this server is inside
    the brief fenced flip window of a live migration (or split), or its
    ownership lease has lapsed and it must not serve until the master
    re-grants one.  Retryable: the client invalidates its location cache
    (ownership may have moved) and re-resolves after backoff."""


class FollowerLaggingError(ClusterError):
    """A read-replica (follower) could not serve a bounded-staleness read:
    its replication watermark is older than the request's ``max_staleness``
    allows, the follower is not (or no longer) subscribed to the tablet,
    or the log position it needs was retired by the owner's compaction.
    Retryable: the client falls back to the tablet's owner for this read
    and keeps the follower in rotation (lag is transient; the next
    heartbeat advances the tail)."""


class MigrationError(ClusterError):
    """A live tablet migration could not complete (the state machine
    aborted or hit an unrecoverable precondition)."""


class RecoveryError(ClusterError):
    """Recovery of a failed tablet server could not complete."""
