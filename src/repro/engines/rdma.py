"""The RDMA engine: CPU-bypass reads of host memory.

In the paper's section 3.2 walk-through, a GET that hits the on-NIC
*location* cache "will be forwarded to an RDMA engine.  This RDMA engine
will then issue DMA requests (via the pipeline) to read the value,
generate the packet headers for the response, and then inject this new
response into the pipeline."

This engine implements that flow: a KV GET arriving here is turned into
a ``DMA_READ`` toward the DMA engine; the completion (carrying the bytes
from host memory and naming the read it completes) is matched back to
the pending request, a KvResponse frame is synthesized, and the response
heads back through the RMT pipeline for egress -- the CPU never runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engines.base import Engine, EngineOutput
from repro.packet.builder import kv_reply_frame, parse_frame
from repro.packet.headers import HeaderError
from repro.packet.kv import KvOpcode, KvRequest, KvResponse, KvStatus
from repro.packet.packet import Direction, MessageKind, Packet
from repro.sim.kernel import Simulator

#: Cycles to turn a GET into a DMA read (or a completion into a reply).
REQUEST_CYCLES = 16


class RdmaEngine(Engine):
    """Serve KV GETs by DMA-reading host memory, bypassing the CPU."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        **engine_kwargs,
    ):
        super().__init__(sim, name, **engine_kwargs)
        #: The DMA engine's NoC address; set by the NIC builder.
        self.dma_addr: Optional[int] = None
        # DMA read in flight -> the GET it serves.
        self._pending: Dict[Packet, Packet] = {}
        self.reads_issued = 0
        self.responses = 0
        self.not_found = 0

    def service_time_ps(self, packet: Packet) -> int:
        return self.clock.cycles_to_ps(REQUEST_CYCLES)

    def handle(self, packet: Packet) -> List[EngineOutput]:
        if packet.kind == MessageKind.DMA_COMPLETION:
            return self._handle_completion(packet)
        request = self._parse_get(packet)
        if request is None:
            return [(packet, None)]
        if self.dma_addr is None:
            raise RuntimeError(f"{self.name}: no DMA engine address configured")
        # Issue the DMA read; remember the original request for later.
        read = Packet(b"", MessageKind.DMA_READ)
        read.meta.direction = Direction.INTERNAL
        read.meta.tenant = request.tenant
        read.meta.annotations["dma_key"] = bytes(request.key)
        read.meta.annotations["dma_bytes"] = 256
        read.meta.annotations["reply_to"] = self.address
        if packet.panic is not None:
            read.panic = packet.panic.copy()
            read.panic.chain = []
            read.panic.cursor = 0
        self._pending[read] = packet
        self.reads_issued += 1
        return [(read, self.dma_addr)]

    def _handle_completion(self, completion: Packet) -> List[EngineOutput]:
        original = self._pending.pop(completion.meta.peek("completes"), None)
        if original is None:
            return []
        request = self._parse_get(original)
        assert request is not None
        data = completion.meta.annotations.get("dma_data")
        if data is None:
            self.not_found += 1
            response = KvResponse(KvStatus.NOT_FOUND, request.tenant, request.request_id)
        else:
            response = KvResponse(KvStatus.OK, request.tenant, request.request_id, data)
        out = self._build_response(original, request, response)
        self.responses += 1
        return [(out, None)]

    def _parse_get(self, packet: Packet) -> Optional[KvRequest]:
        if packet.kind != MessageKind.ETHERNET:
            return None
        try:
            frame = parse_frame(packet.data)
            if not frame.is_kv or not frame.payload:
                return None
            if frame.payload[0] != KvOpcode.GET:
                return None
            return frame.kv_request()
        except HeaderError:
            return None

    def _build_response(
        self, original: Packet, request: KvRequest, response: KvResponse
    ) -> Packet:
        out = Packet(kv_reply_frame(parse_frame(original.data), response),
                     MessageKind.ETHERNET)
        out.meta.direction = Direction.TX
        out.meta.tenant = request.tenant
        out.meta.nic_arrival_ps = original.meta.nic_arrival_ps
        out.meta.created_ps = original.meta.created_ps
        out.meta.egress_port = original.meta.ingress_port
        out.meta.annotations["request_ctx"] = original.meta.annotations.get("request_ctx")
        if self._frame_born is not None:
            self._frame_born(out, self.name)
        return out
