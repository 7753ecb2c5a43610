"""The envelope that carries packets across the on-chip network."""

from __future__ import annotations

import itertools
from typing import Optional

from repro.packet.packet import Packet

_message_ids = itertools.count()


class NocMessage:
    """A packet in flight between two engines.

    The envelope keeps NoC-level bookkeeping (source/destination engine
    addresses, injection time, hop count) separate from the packet itself,
    mirroring how a real design would wrap payloads in link-layer framing.
    ``message_id`` is drawn from one global sequence unless given (the
    train lane passes the id it drew when the message would have been
    made).  Envelopes are never compared or hashed.
    """

    __slots__ = ("packet", "dest_addr", "src_addr", "inject_ps", "hops",
                 "message_id", "bits", "enqueue_ps")

    def __init__(self, packet: Packet, dest_addr: int, src_addr: int,
                 inject_ps: int = 0, hops: int = 0,
                 message_id: Optional[int] = None):
        self.packet = packet
        self.dest_addr = dest_addr
        self.src_addr = src_addr
        self.inject_ps = inject_ps
        self.hops = hops
        self.message_id = (next(_message_ids) if message_id is None
                           else message_id)
        if dest_addr < 0 or src_addr < 0:
            raise ValueError(
                f"engine addresses must be non-negative "
                f"(src={src_addr}, dest={dest_addr})"
            )
        #: Bits this message occupies on a channel (packet + chain
        #: header, or the pointer-mode descriptor), fixed when the
        #: envelope is made: the packet is not resized between injection
        #: and delivery, so every hop and every express attempt reads one
        #: stored size.
        self.bits = packet.chip_bits
        #: When the destination engine queued this message (its
        #: ``queue_latency`` sample starts here).
        self.enqueue_ps = 0

    def __repr__(self) -> str:
        return (
            f"NocMessage(#{self.message_id}, {self.src_addr}->{self.dest_addr}, "
            f"{self.bits} bits, hops={self.hops})"
        )
