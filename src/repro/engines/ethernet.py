"""The Ethernet MAC port engine.

In PANIC even the Ethernet ports are engines on the mesh (Figure 3c).
The MAC models the external wire in both directions at the configured
line rate: ingress frames arrive after their serialization time and are
forwarded to the RMT pipeline (the port's lookup-table default route);
egress frames whose chain ends here are transmitted onto the wire, again
honouring line rate, and handed to the ``on_transmit`` callback.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.engines.base import Engine, EngineOutput
from repro.packet.packet import Direction, Packet
from repro.sim.clock import SEC
from repro.sim.kernel import Simulator

#: 100 Gbps, the paper's headline line rate.
DEFAULT_LINE_RATE = 100e9


class EthernetPort(Engine):
    """A full-duplex Ethernet MAC attached to the mesh.

    Parameters
    ----------
    port_index:
        External port number (``meta.ingress_port`` for RX frames).
    line_rate_bps:
        Wire speed; serialization of a frame takes ``wire_bits / rate``.
    on_transmit:
        Called with each frame that leaves on the wire (the experiment's
        external sink).
    """

    #: The NIC's :class:`~repro.core.train.TrainLane` when it has one
    #: (``PanicConfig.batched``), else None: a frame boards the lane at
    #: one place, the end of :meth:`_rx_arrival`.
    _train_lane = None

    def __init__(
        self,
        sim: Simulator,
        name: str,
        port_index: int = 0,
        line_rate_bps: float = DEFAULT_LINE_RATE,
        on_transmit: Optional[Callable[[Packet], None]] = None,
    ):
        super().__init__(sim, name)
        if line_rate_bps <= 0:
            raise ValueError(f"{name}: line rate must be positive")
        self.port_index = port_index
        self.line_rate_bps = line_rate_bps
        self.on_transmit = on_transmit
        self._rx_wire_free_ps = 0
        self._tx_wire_free_ps = 0
        self.tx_frames = 0

    # ------------------------------------------------------------------
    # External wire: ingress
    # ------------------------------------------------------------------

    def wire_time_ps(self, packet: Packet) -> int:
        """Serialization time of ``packet`` at this port's line rate."""
        return int(packet.wire_bits * SEC / self.line_rate_bps)

    def inject_rx(self, packet: Packet) -> int:
        """Offer a frame from the external wire.

        Returns the simulated arrival completion time.  Back-to-back
        injections serialize at line rate, so a generator may inject a
        burst and the MAC spaces it out, exactly like a saturated wire.
        """
        start = max(self.now, self._rx_wire_free_ps)
        arrival = start + self.wire_time_ps(packet)
        self._rx_wire_free_ps = arrival
        self.schedule(arrival - self.now, self._rx_arrival, packet)
        return arrival

    def _rx_arrival(self, packet: Packet) -> None:
        packet.meta.ingress_port = self.port_index
        packet.meta.direction = Direction.RX
        packet.meta.nic_arrival_ps = self.now
        packet.meta.mac_rx = True
        if self.payload_buffer is not None:
            # Pointer mode (section 6): park the payload in the shared
            # buffer; only a descriptor rides the on-chip network.
            packet.pbuf_handle = self.payload_buffer.store(packet.frame_bytes)
            write_delay = self.payload_buffer.access_delay_ps(
                packet.frame_bytes
            )
            self.schedule(write_delay, self._loopback, packet)
            return
        lane = self._train_lane
        if lane is not None and lane.try_ride(self, packet):
            # The frame's whole trajectory was replayed inside this
            # event (repro.core.train); nothing left to schedule.
            return
        self._loopback(packet)

    # ------------------------------------------------------------------
    # Engine behaviour
    # ------------------------------------------------------------------

    def handle(self, packet: Packet) -> List[EngineOutput]:
        if packet.meta.mac_rx:
            packet.meta.mac_rx = False
            # Fresh ingress frame: forward along the default route (the
            # heavyweight RMT pipeline) for classification.
            return [(packet, None)]
        # A frame routed here by the logical switch: transmit it.
        self._transmit(packet)
        return []

    def _transmit(self, packet: Packet) -> None:
        ctx = packet.trace
        if ctx is not None and ctx.int_ is not None:
            # Push this hop's INT record; in-band mode appends the
            # trailer bytes *before* the serialization window below, so
            # the grown frame pays its own wire time.
            ctx.int_.on_transmit(packet, ctx, self.now)
        start = max(self.now, self._tx_wire_free_ps)
        done = start + self.wire_time_ps(packet)
        self._tx_wire_free_ps = done
        self.schedule(done - self.now, self._tx_complete, packet)

    def _tx_complete(self, packet: Packet) -> None:
        handle = packet.pbuf_handle
        if handle is not None and self.payload_buffer is not None:
            # The frame has fully left on the wire: free the buffer slot.
            self.payload_buffer.release(handle)
            packet.pbuf_handle = None
        packet.meta.direction = Direction.TX
        packet.meta.egress_port = self.port_index
        packet.meta.nic_departure_ps = self.now
        self.tx_frames += 1
        if self.on_transmit is not None:
            self.on_transmit(packet)
