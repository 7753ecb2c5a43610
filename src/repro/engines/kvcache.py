"""The on-NIC key-value cache engine (the paper's section 2.2 example).

"The NIC can cache the location of values for hot keys and use DMA to
directly return replies, completely bypassing the CPU.  However, only
requests that are cached on the NIC should be processed in this way."

The engine keeps an LRU cache in its local SRAM.  GET hits synthesize a
:class:`~repro.packet.kv.KvResponse` frame on the spot and send it back
out (the response re-enters the RMT pipeline for egress routing, exactly
as the section 3.2 walk-through describes).  GET misses, SETs and
DELETEs continue along their chain toward the DMA engine and host; SETs
write through into the cache when the key is already hot, and DELETEs
invalidate.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.engines.base import Engine, EngineOutput
from repro.packet.builder import kv_reply_frame, parse_frame
from repro.packet.headers import HeaderError
from repro.packet.kv import KvOpcode, KvRequest, KvResponse, KvStatus
from repro.packet.packet import Direction, MessageKind, Packet
from repro.sim.kernel import Simulator

#: Service time: ``LOOKUP_CYCLES + CYCLES_PER_VALUE_BYTE * value bytes``
#: cycles.
LOOKUP_CYCLES = 8
CYCLES_PER_VALUE_BYTE = 0.125


class KvCacheEngine(Engine):
    """An LRU key-value cache living in NIC SRAM."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity_bytes: int = 1 << 20,
        **engine_kwargs,
    ):
        super().__init__(sim, name, **engine_kwargs)
        if capacity_bytes <= 0:
            raise ValueError(f"{name}: capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._cache: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writethroughs = 0

    # ------------------------------------------------------------------
    # Cache mechanics
    # ------------------------------------------------------------------

    @staticmethod
    def _entry_bytes(key: bytes, value: bytes) -> int:
        return len(key) + len(value)

    def cache_get(self, key: bytes) -> Optional[bytes]:
        value = self._cache.get(key)
        if value is not None:
            self._cache.move_to_end(key)
        return value

    def cache_put(self, key: bytes, value: bytes) -> None:
        """Insert/update, evicting LRU entries to respect capacity."""
        entry = self._entry_bytes(key, value)
        if entry > self.capacity_bytes:
            raise ValueError(
                f"{self.name}: entry of {entry} bytes exceeds cache capacity"
            )
        if key in self._cache:
            self._used_bytes -= self._entry_bytes(key, self._cache.pop(key))
        while self._used_bytes + entry > self.capacity_bytes:
            old_key, old_value = self._cache.popitem(last=False)
            self._used_bytes -= self._entry_bytes(old_key, old_value)
            self.evictions += 1
        self._cache[key] = value
        self._used_bytes += entry

    def cache_delete(self, key: bytes) -> bool:
        value = self._cache.pop(key, None)
        if value is None:
            return False
        self._used_bytes -= self._entry_bytes(key, value)
        return True

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def service_time_ps(self, packet: Packet) -> int:
        value_bytes = packet.meta.annotations.get("kv_value_bytes", 0)
        cycles = LOOKUP_CYCLES + CYCLES_PER_VALUE_BYTE * value_bytes
        return self.clock.cycles_to_ps(cycles)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def handle(self, packet: Packet) -> List[EngineOutput]:
        parsed_request = self._parse_request(packet)
        if parsed_request is None:
            return [(packet, None)]
        request, frame = parsed_request
        if request.opcode == KvOpcode.GET:
            value = self.cache_get(request.key)
            if value is not None:
                self.hits += 1
                response = self._respond(packet, frame, request, value)
                # The miss path (continuing the chain toward the host) is
                # abandoned: the cache answered.
                return [(response, None)]
            self.misses += 1
            return [(packet, None)]
        if request.opcode == KvOpcode.SET:
            if request.key in self._cache:
                self.cache_put(request.key, request.value)
                self.writethroughs += 1
            return [(packet, None)]
        if request.opcode == KvOpcode.DELETE:
            self.cache_delete(request.key)
            return [(packet, None)]
        return [(packet, None)]

    def _parse_request(self, packet: Packet):
        if packet.kind != MessageKind.ETHERNET:
            return None
        try:
            frame = parse_frame(packet.data)
        except HeaderError:
            return None
        if not frame.is_kv or not frame.payload:
            return None
        if frame.payload[0] == KvOpcode.RESPONSE:
            return None
        try:
            request = frame.kv_request()
        except HeaderError:
            return None
        return request, frame

    def _respond(self, packet: Packet, frame, request: KvRequest, value: bytes) -> Packet:
        response = KvResponse(KvStatus.OK, request.tenant, request.request_id, value)
        out = Packet(kv_reply_frame(frame, response), MessageKind.ETHERNET)
        out.meta.direction = Direction.TX
        out.meta.tenant = request.tenant
        out.meta.nic_arrival_ps = packet.meta.nic_arrival_ps
        out.meta.created_ps = packet.meta.created_ps
        out.meta.egress_port = packet.meta.ingress_port
        out.meta.annotations["cache_hit"] = True
        out.meta.annotations["kv_value_bytes"] = len(value)
        out.meta.annotations["request_ctx"] = packet.meta.annotations.get("request_ctx")
        if self._frame_born is not None:
            self._frame_born(out, self.name)
        # No chain: the lookup-table default (the RMT pipeline) will give
        # the response an egress chain, as in the paper's walk-through.
        return out
