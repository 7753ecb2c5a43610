"""The envelope that carries packets across the on-chip network."""

from __future__ import annotations

from repro.packet.packet import Packet


class NocMessage:
    """A packet in flight between two engines.

    The envelope keeps NoC-level bookkeeping (destination engine address,
    hop count, size on a channel) separate from the packet itself,
    mirroring how a real design would wrap payloads in link-layer framing.
    Envelopes are never compared or hashed.
    """

    __slots__ = ("packet", "dest_addr", "hops", "bits", "enqueue_ps")

    def __init__(self, packet: Packet, dest_addr: int, hops: int = 0):
        self.packet = packet
        self.dest_addr = dest_addr
        self.hops = hops
        if dest_addr < 0:
            raise ValueError(
                f"engine addresses must be non-negative (dest={dest_addr})")
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
        return (f"NocMessage(->{self.dest_addr}, {self.bits} bits, "
                f"hops={self.hops})")
