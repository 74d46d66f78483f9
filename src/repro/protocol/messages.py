"""Message types of the cache-coherence protocol.

Following the paper, a *message* is any inter- or intra-node communication:
processor requests arriving at MAGIC through the PI, network messages through
the NI, and replies back to the processor.  Every message carries the line
address it concerns, its source and destination node, and the identity of the
original requester (needed for three-hop transactions).
"""

from __future__ import annotations

import itertools
from typing import Optional

__all__ = ["MessageType", "Message", "DATA_BEARING"]


class MessageType:
    """Protocol message opcodes."""

    # Processor -> MAGIC (through the PI).
    GET = "GET"                      # read miss
    GETX = "GETX"                    # write miss (needs data + ownership)
    UPGRADE = "UPGRADE"              # write hit on a SHARED line (ownership only)
    WRITEBACK = "WRITEBACK"          # dirty eviction
    REPL_HINT = "REPL_HINT"          # clean eviction notice

    # Network requests (requester -> home).
    REMOTE_GET = "REMOTE_GET"
    REMOTE_GETX = "REMOTE_GETX"
    REMOTE_UPGRADE = "REMOTE_UPGRADE"
    REMOTE_WRITEBACK = "REMOTE_WRITEBACK"
    REMOTE_REPL_HINT = "REMOTE_REPL_HINT"

    # Home -> owner forwards (three-hop transactions).
    FORWARD_GET = "FORWARD_GET"
    FORWARD_GETX = "FORWARD_GETX"

    # Replies.
    PUT = "PUT"                      # data reply, shared
    PUTX = "PUTX"                    # data reply, exclusive (carries n_invals)
    UPGRADE_ACK = "UPGRADE_ACK"      # ownership grant without data
    NAK = "NAK"                      # forward missed (owner no longer dirty)

    # Invalidation traffic.
    INVAL = "INVAL"                  # home -> sharer
    INVAL_ACK = "INVAL_ACK"          # sharer -> requester

    # Owner -> home completion of three-hop transactions.
    SHARING_WRITEBACK = "SHARING_WB"     # after a forwarded GET
    OWNERSHIP_TRANSFER = "OWNERSHIP_XFER"  # after a forwarded GETX

    # Block-transfer message passing (the [HGD+94] mechanism; handled by the
    # node controller's transfer handlers, not the coherence engine).
    XFER_SEND = "XFER_SEND"          # CPU -> local MAGIC: send descriptor
    XFER_DATA = "XFER_DATA"          # one line of payload on the network
    XFER_DONE = "XFER_DONE"          # completion notification to receiver CPU

    # Fault injection (repro.faults): a dropped request returned to its
    # sender, which retries it after a backoff.  Never sent in clean runs.
    BOUNCE = "BOUNCE"


#: Message types whose payload includes a full cache line (these need a MAGIC
#: data buffer and a memory or cache data source).
DATA_BEARING = frozenset({
    MessageType.PUT,
    MessageType.PUTX,
    MessageType.WRITEBACK,
    MessageType.REMOTE_WRITEBACK,
    MessageType.SHARING_WRITEBACK,
    MessageType.XFER_DATA,
})

#: Message types handled by the controller's block-transfer path rather than
#: the coherence engine.
TRANSFER_TYPES = frozenset({
    MessageType.XFER_SEND,
    MessageType.XFER_DATA,
    MessageType.XFER_DONE,
})

_sequence = itertools.count()


class Message:
    """One protocol message.

    Hand-rolled slots class (not a dataclass): a simulated run constructs one
    Message per protocol hop, so construction cost is on the hot path.
    """

    __slots__ = ("mtype", "line_addr", "src", "dst", "requester", "is_write",
                 "n_invals", "data_stale", "nbytes", "orig", "uid",
                 "carries_data")

    def __init__(self, mtype: str, line_addr: int, src: int, dst: int,
                 requester: int, is_write: bool = False, n_invals: int = 0,
                 data_stale: bool = False, nbytes: int = 0,
                 orig: Optional["Message"] = None, uid: Optional[int] = None):
        if line_addr < 0:
            raise ValueError(f"negative line address {line_addr}")
        self.mtype = mtype
        self.line_addr = line_addr
        self.src = src                  # node sending this message
        self.dst = dst                  # node that must process it
        self.requester = requester      # node whose processor started the transaction
        self.is_write = is_write        # transaction kind for miss classification
        self.n_invals = n_invals        # acks the requester must collect (PUTX/UPGRADE_ACK)
        self.data_stale = data_stale    # memory copy is stale (speculation is useless)
        self.nbytes = nbytes            # block-transfer payload size (XFER_*)
        self.orig = orig                # dropped original carried by a BOUNCE
        self.uid = next(_sequence) if uid is None else uid
        # Precomputed ``mtype in DATA_BEARING`` — checked several times per
        # message on the intake/outbound hot paths.
        self.carries_data = mtype in DATA_BEARING

    def reply(self, mtype: str, dst: Optional[int] = None, **kwargs) -> "Message":
        """Construct a follow-on message for the same transaction."""
        return Message(
            mtype=mtype,
            line_addr=self.line_addr,
            src=self.dst,
            dst=self.requester if dst is None else dst,
            requester=self.requester,
            is_write=kwargs.pop("is_write", self.is_write),
            **kwargs,
        )

    def __repr__(self) -> str:
        return (
            f"Message({self.mtype}, line={self.line_addr:#x}, "
            f"{self.src}->{self.dst}, req={self.requester})"
        )
