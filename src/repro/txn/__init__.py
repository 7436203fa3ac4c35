"""Transaction management (§3.7): MVOCC with snapshot isolation.

Read-only transactions run against a consistent snapshot and always
commit; update transactions validate against concurrently committed
writers under per-record write locks ("first-committer-wins"), take their
commit timestamp from the global timestamp oracle, and persist all writes
plus a commit record in one log batch.  Transactions spanning tablet
servers fall back to two-phase commit.
"""

from repro.txn.transaction import Transaction, TxnStatus
from repro.txn.mvocc import TransactionManager
from repro.txn.twopc import TwoPhaseCoordinator

__all__ = [
    "Transaction",
    "TxnStatus",
    "TransactionManager",
    "TwoPhaseCoordinator",
]
