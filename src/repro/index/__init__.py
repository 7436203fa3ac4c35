"""Multiversion indexes over the log (§3.5).

Tablet servers build one index per column group per tablet, mapping the
composite key (record primary key, write timestamp) to the record's
:class:`~repro.wal.record.LogPointer`.  Two implementations are provided:

* :class:`~repro.index.blink.BLinkTreeIndex` — the in-memory B-link tree
  the paper describes (efficient key-range search, link pointers for
  concurrent splits);
* :class:`~repro.index.lsm.LSMTreeIndex` — a log-structured merge tree
  that spills sorted runs to the DFS, used by the LRS baseline and by
  LogBase's index-beyond-memory mode (§4.6).
"""

from repro.index.interface import MultiversionIndex, IndexEntry
from repro.index.blink import BLinkTreeIndex
from repro.index.lsm import LSMTreeIndex

__all__ = [
    "MultiversionIndex",
    "IndexEntry",
    "BLinkTreeIndex",
    "LSMTreeIndex",
]
