"""The :class:`Packet` container carried through every simulator.

A packet couples the raw frame bytes with NIC-side metadata: timestamps
used by latency trackers, the tenant/flow labels assigned by
classification, and -- inside PANIC -- the parsed on-chip chain header.

Section 3.1 of the paper: *"even messages between different on-NIC engines
... that are not Ethernet packets can be treated as if they were"*.  The
same :class:`Packet` type therefore also represents DMA requests, DMA
completions and doorbells; ``kind`` distinguishes them.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional

from repro.packet.panic_hdr import PanicHeader

#: Minimum Ethernet frame (64 bytes including FCS).
MIN_FRAME_BYTES = 64
#: Preamble (7) + SFD (1) + inter-frame gap (12) bytes per frame on the wire.
WIRE_OVERHEAD_BYTES = 20
#: Bits a descriptor occupies on the on-chip network in pointer mode:
#: 16-byte chain header + pointer + lengths + metadata = 32 bytes.
DESCRIPTOR_BITS = 32 * 8


def wire_bits(frame_bytes: int) -> int:
    """Bits a frame occupies on the physical wire, including preamble+IFG.

    Frames shorter than the Ethernet minimum are padded to 64 bytes, which
    is how the paper's Table 2 arrives at its packets-per-second numbers
    (64 B minimum frame + 20 B overhead = 84 B = 672 bits per packet).
    """
    if frame_bytes < 0:
        raise ValueError(f"negative frame size: {frame_bytes}")
    padded = max(frame_bytes, MIN_FRAME_BYTES)
    return (padded + WIRE_OVERHEAD_BYTES) * 8


class MessageKind(enum.Enum):
    """What a message on the unified on-chip network represents."""

    ETHERNET = "ethernet"  # a network frame (RX or TX)
    DMA_READ = "dma_read"  # request to read host memory
    DMA_WRITE = "dma_write"  # request to write host memory
    DMA_COMPLETION = "dma_completion"
    DOORBELL = "doorbell"  # PCIe doorbell / interrupt message
    CONTROL = "control"  # table updates, credits, ...


class Direction(enum.Enum):
    RX = "rx"
    TX = "tx"
    INTERNAL = "internal"


class PacketMetadata:
    """Mutable NIC-side metadata that never appears on the external wire.

    Slotted: every field is typed and owned by the component that writes
    it.  ``annotations`` -- per-experiment and role-specific scratch
    (workload correlators, DMA/RDMA context, baseline bookkeeping) -- is
    allocated on first access, so a frame nobody annotates carries no
    dict at all.
    """

    __slots__ = ("ingress_port", "egress_port", "direction", "tenant",
                 "created_ps", "nic_arrival_ps", "nic_departure_ps",
                 "mac_rx", "rx_queue", "host_rx_ps", "annotations")

    def __init__(self) -> None:
        self.ingress_port: Optional[int] = None
        self.egress_port: Optional[int] = None
        self.direction = Direction.RX
        self.tenant: Optional[int] = None
        self.created_ps = 0
        self.nic_arrival_ps: Optional[int] = None
        self.nic_departure_ps: Optional[int] = None
        #: Set by the MAC on a frame fresh off the wire, cleared when the
        #: MAC forwards it for classification.
        self.mac_rx = False
        #: Host RX queue chosen by classification (RMT ``meta.rx_queue``).
        self.rx_queue = 0
        #: When the DMA engine wrote the frame into a host RX ring.
        self.host_rx_ps: Optional[int] = None

    def __getattr__(self, name: str) -> Any:
        # Reached only while the ``annotations`` slot is still unset.
        if name != "annotations":
            raise AttributeError(name)
        annotations: Dict[str, Any] = {}
        self.annotations = annotations
        return annotations

    def peek(self, key: str) -> Any:
        """``annotations.get(key)`` that allocates no dict."""
        try:
            return _annotations_slot(self).get(key)
        except AttributeError:
            return None


#: The slot's own getter: raises AttributeError while nothing has been
#: annotated, where ``meta.annotations`` would allocate the dict.
_annotations_slot = PacketMetadata.annotations.__get__


class Packet:
    """A message travelling through a NIC simulation.

    Parameters
    ----------
    data:
        The frame (or message) payload bytes.
    kind:
        What the message represents on the unified network.
    meta:
        Optional pre-populated metadata.
    """

    __slots__ = ("data", "kind", "meta", "panic", "trace",
                 "pbuf_handle",
                 "dest_addr", "hops", "bits", "enqueue_ps")

    def __init__(
        self,
        data: bytes,
        kind: MessageKind = MessageKind.ETHERNET,
        meta: Optional[PacketMetadata] = None,
    ):
        self.data = bytes(data)
        self.kind = kind
        self.meta = meta if meta is not None else PacketMetadata()
        #: PANIC chain header; attached by the RMT pipeline, consumed by
        #: per-engine lookup logic.  ``None`` outside the PANIC NIC.
        self.panic: Optional[PanicHeader] = None
        #: The one observation slot: a
        #: :class:`~repro.telemetry.tracer.TraceCtx` naming whatever
        #: observes this packet (the tracer when it is sampled, the INT
        #: agent when INT is on), else None.
        self.trace = None
        #: Pointer mode (section 6): the shared-buffer slot holding the
        #: payload while only a descriptor rides the on-chip network.
        self.pbuf_handle: Optional[int] = None
        # Its own on-chip envelope, one transfer at a time: ``dest_addr``,
        # ``hops`` and ``bits`` are set where a port's ``send`` starts a
        # transfer, and ``enqueue_ps`` where an engine queues the packet.

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------

    @property
    def frame_bytes(self) -> int:
        """Length of the frame as handed to / received from the MAC."""
        return len(self.data)

    @property
    def wire_bits(self) -> int:
        """Bits occupied on the external Ethernet wire."""
        return wire_bits(len(self.data))

    @property
    def chip_bits(self) -> int:
        """Bits occupied on the on-chip network (frame + chain header).

        In pointer mode (payload parked in a shared packet buffer) the
        network carries only a descriptor.
        """
        if self.pbuf_handle is not None:
            return DESCRIPTOR_BITS
        extra = self.panic.length if self.panic is not None else 0
        return (len(self.data) + extra) * 8

    # ------------------------------------------------------------------
    # Lifecycle helpers
    # ------------------------------------------------------------------

    def rewritten(self, data: bytes) -> "Packet":
        """The same packet life with new frame bytes (an engine rebuilt
        the frame): a new object with the same metadata, chain header,
        trace context and buffer handle."""
        out = Packet(data, self.kind, self.meta)
        out.panic = self.panic
        out.trace = self.trace
        out.pbuf_handle = self.pbuf_handle
        return out

    def __repr__(self) -> str:
        chain = ""
        if self.panic is not None:
            chain = f", chain={self.panic.remaining()}"
        return (
            f"Packet({self.kind.value}, "
            f"{self.frame_bytes}B{chain})"
        )
