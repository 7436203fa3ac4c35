"""Block metadata kept by the namenode.

A DFS file is an ordered list of blocks; each block is replicated on a set
of datanodes.  Block payloads live on the datanodes; the namenode only
tracks locations and lengths, as in HDFS.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BlockInfo:
    """Metadata for one block of a DFS file.

    Attributes:
        block_id: globally unique block number.
        locations: names of datanodes holding a replica, pipeline order.
        length: bytes currently written into the block.
    """

    block_id: int
    locations: list[str] = field(default_factory=list)
    length: int = 0


@dataclass
class FileMeta:
    """Namenode metadata for one file.

    Attributes:
        path: absolute path of the file.
        blocks: ordered block list.
        closed: True once the writer finalized the file.
        length: total file length in bytes, the sum of the blocks'
            lengths: grown by ``DFSWriter.append`` beside each block's.
    """

    path: str
    blocks: list[BlockInfo] = field(default_factory=list)
    closed: bool = False
    length: int = 0
