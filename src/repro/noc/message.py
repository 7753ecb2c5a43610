"""The envelope that carries packets across the on-chip network."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.packet.packet import Packet

_message_ids = itertools.count()


@dataclass(slots=True)
class NocMessage:
    """A packet in flight between two engines.

    The envelope keeps NoC-level bookkeeping (source/destination engine
    addresses, injection time, hop count) separate from the packet itself,
    mirroring how a real design would wrap payloads in link-layer framing.
    """

    packet: Packet
    dest_addr: int
    src_addr: int
    inject_ps: int = 0
    hops: int = 0
    message_id: int = field(default_factory=_message_ids.__next__)
    #: Bits this message occupies on a channel (packet + chain header, or
    #: the pointer-mode descriptor), fixed when the envelope is made: the
    #: packet is not resized between injection and delivery, so every hop
    #: and every express attempt reads one stored size.
    bits: int = field(init=False)
    #: When the destination engine queued this message (its
    #: ``queue_latency`` sample starts here).
    enqueue_ps: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.dest_addr < 0 or self.src_addr < 0:
            raise ValueError(
                f"engine addresses must be non-negative "
                f"(src={self.src_addr}, dest={self.dest_addr})"
            )
        self.bits = self.packet.chip_bits

    def __repr__(self) -> str:
        return (
            f"NocMessage(#{self.message_id}, {self.src_addr}->{self.dest_addr}, "
            f"{self.bits} bits, hops={self.hops})"
        )
