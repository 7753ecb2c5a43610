"""The DMA engine: the tile that talks to host memory.

Section 3.1: "PANIC uses a DMA engine and PCIe engine to interface with
the main processor.  These engines are attached to the logical switch in
the same way as the offload engines."  Section 3.2: "the DMA engine has
variable performance and may become a bottleneck" due to host memory
contention -- the ``host.memory_latency_ps()`` hook models exactly that.

Message kinds handled (all are just packets on the unified network):

* ``ETHERNET`` (RX direction) -- write the frame into a host receive ring,
  emit a completion toward the PCIe engine (for interrupt generation).
* ``DOORBELL`` -- a transmit doorbell: fetch the next TX descriptor/frame
  from the host ring and inject it toward the RMT pipeline.
* ``DMA_READ`` -- read host memory on behalf of another engine (e.g. the
  RDMA engine); reply with a ``DMA_COMPLETION`` carrying the data.
* ``DMA_WRITE`` -- write host memory (e.g. appending a SET to a log).
"""

from __future__ import annotations

from typing import List, Optional

from repro.engines.base import Engine, EngineOutput
from repro.packet.packet import Direction, MessageKind, Packet
from repro.sim.clock import SEC
from repro.sim.kernel import Simulator

#: PCIe 3.0 x16 usable bandwidth, roughly (the paper's Figure 3c shows
#: "PCIe x16").
PCIE_BPS = 120e9

#: Fixed descriptor-processing overhead per DMA operation.
DESCRIPTOR_CYCLES = 16


class DmaEngine(Engine):
    """Moves data between the NIC and host memory over PCIe."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        **engine_kwargs,
    ):
        super().__init__(sim, name, **engine_kwargs)
        self.host = None
        #: Where completions go (the PCIe engine); set by the NIC builder.
        self.pcie_addr: Optional[int] = None
        self.rx_writes = 0
        self.tx_fetches = 0
        self.reads = 0
        self.writes = 0

    def attach_host(self, host) -> None:
        """Connect the host model (see :class:`repro.core.host.Host`)."""
        self.host = host

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def service_time_ps(self, packet: Packet) -> int:
        if self.host is None:
            raise RuntimeError(f"{self.name}: no host attached")
        transfer_bytes = self._transfer_bytes(packet)
        wire = int(transfer_bytes * 8 * SEC / PCIE_BPS)
        overhead = self.clock.cycles_to_ps(DESCRIPTOR_CYCLES)
        # Host memory latency varies with contention (section 3.2).
        return overhead + wire + self.host.memory_latency_ps()

    def _transfer_bytes(self, packet: Packet) -> int:
        if packet.kind == MessageKind.ETHERNET:
            return packet.frame_bytes
        if packet.kind in (MessageKind.DMA_READ, MessageKind.DMA_WRITE):
            return int(packet.meta.annotations.get("dma_bytes", packet.frame_bytes))
        return 0  # doorbells and completions are descriptor-only

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------

    def handle(self, packet: Packet) -> List[EngineOutput]:
        if self.host is None:
            raise RuntimeError(f"{self.name}: no host attached")
        kind = packet.kind
        if kind == MessageKind.ETHERNET and packet.meta.direction == Direction.RX:
            return self._handle_rx_write(packet)
        if kind == MessageKind.DOORBELL:
            return self._handle_tx_doorbell(packet)
        if kind == MessageKind.DMA_READ:
            return self._handle_read(packet)
        if kind == MessageKind.DMA_WRITE:
            return self._handle_write(packet)
        # Anything else (e.g. a TX frame routed here by mistake) follows
        # its chain -- the default engine behaviour.
        return [(packet, None)]

    def _handle_rx_write(self, packet: Packet) -> List[EngineOutput]:
        queue = packet.meta.rx_queue
        handle = packet.pbuf_handle
        if handle is not None and self.payload_buffer is not None:
            # The payload has been DMA'd to host memory: free the slot.
            self.payload_buffer.release(handle)
            packet.pbuf_handle = None
        self.host.write_rx(packet, queue)
        self.rx_writes += 1
        completion = self._completion_for(packet, None)
        if self.pcie_addr is None:
            return []
        return [(completion, self.pcie_addr)]

    def _handle_tx_doorbell(self, packet: Packet) -> List[EngineOutput]:
        queue = int(packet.meta.annotations.get("tx_queue", 0))
        outputs: List[EngineOutput] = []
        frame = self.host.pop_tx(queue)
        while frame is not None:
            self.tx_fetches += 1
            tx_packet = Packet(frame, MessageKind.ETHERNET)
            tx_packet.meta.direction = Direction.TX
            tx_packet.meta.nic_arrival_ps = self.now
            if self._frame_born is not None:
                self._frame_born(tx_packet)
            # No chain yet: the lookup-table default routes TX frames to
            # the RMT pipeline for egress classification.
            outputs.append((tx_packet, None))
            frame = self.host.pop_tx(queue)
        return outputs

    def _handle_read(self, packet: Packet) -> List[EngineOutput]:
        key = packet.meta.annotations.get("dma_key")
        data = self.host.memory_read(key)
        self.reads += 1
        reply_to = packet.meta.annotations.get("reply_to")
        completion = self._completion_for(packet, data)
        # The read itself: RDMA matches a completion to its request by it.
        completion.meta.annotations["completes"] = packet
        if reply_to is None:
            return []
        return [(completion, int(reply_to))]

    def _handle_write(self, packet: Packet) -> List[EngineOutput]:
        key = packet.meta.annotations.get("dma_key")
        data = packet.meta.annotations.get("dma_data", packet.data)
        self.host.memory_write(key, data)
        self.writes += 1
        reply_to = packet.meta.annotations.get("reply_to")
        if reply_to is None:
            return []
        completion = self._completion_for(packet, None)
        return [(completion, int(reply_to))]

    def _completion_for(self, request: Packet, data: Optional[bytes]) -> Packet:
        completion = Packet(b"", MessageKind.DMA_COMPLETION)
        meta = completion.meta
        meta.direction = Direction.INTERNAL
        meta.tenant = request.meta.tenant
        if data is not None:
            meta.annotations["dma_data"] = data
        # Carry the request's context so responders can correlate.
        ctx = request.meta.peek("request_ctx")
        if ctx is not None:
            meta.annotations["request_ctx"] = ctx
        if request.panic is not None:
            completion.panic = request.panic.copy()
            # Completions inherit the original slack so the scheduler can
            # keep prioritising the dependent accesses (section 3.2).
        return completion
