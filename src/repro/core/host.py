"""The host model: memory, descriptor rings, interrupts, software.

The substrate PANIC's DMA/PCIe engines talk to.  It models:

* **host memory** -- a key-value store readable by DMA (the backing store
  for the RDMA fast path) with *variable* access latency: base cost plus
  jitter plus a contention term that experiments crank up to reproduce
  section 3.2's "due to possible memory contention from applications on
  the main CPU, the DMA engine has variable performance";
* **receive/transmit descriptor rings** per queue;
* **interrupts** with a software-processing delay, after which a pluggable
  handler (e.g. :class:`HostKvServer`) consumes delivered packets and may
  enqueue transmit frames and ring the doorbell.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.packet.builder import kv_reply_frame, parse_frame
from repro.packet.headers import HeaderError
from repro.packet.kv import KvOpcode, KvRequest, KvResponse, KvStatus
from repro.packet.packet import Packet
from repro.sim.clock import NS, US
from repro.sim.kernel import Component, Simulator
from repro.sim.rng import SeededRng

#: Descriptor rings per direction (``rx_queues`` may set fewer or more
#: RX rings); the reference program's RX steering hashes over this many.
QUEUES = 4


class Host(Component):
    """Main memory + descriptor rings + interrupt-driven software."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "host",
        rx_queues: int = QUEUES,
        mem_base_ps: int = 90 * NS,
        mem_jitter_ps: int = 20 * NS,
        software_delay_ps: int = 2 * US,
        rng: Optional[SeededRng] = None,
    ):
        super().__init__(sim, name)
        if rx_queues < 1:
            raise ValueError(f"{name}: need at least one RX queue")
        for param, value in (("mem_base_ps", mem_base_ps),
                             ("mem_jitter_ps", mem_jitter_ps),
                             ("software_delay_ps", software_delay_ps)):
            if value < 0:
                raise ValueError(f"{name}: {param} must be >= 0, got {value}")
        self.rx_rings: List[Deque[Packet]] = [deque() for _ in range(rx_queues)]
        self.tx_rings: List[Deque[bytes]] = [deque() for _ in range(QUEUES)]
        self.memory: Dict[bytes, bytes] = {}
        self.mem_base_ps = mem_base_ps
        self.mem_jitter_ps = mem_jitter_ps
        #: Extra latency from co-running applications; experiments set it.
        self.contention_ps = 0
        self.software_delay_ps = software_delay_ps
        self.rng = rng if rng is not None else SeededRng(0)
        #: Called for each RX packet during interrupt processing.
        self.software_handler: Optional[Callable[[Packet, int], None]] = None
        #: The PCIe engine, once attached (for doorbells).
        self.pcie = None
        self.rx_delivered = 0
        self.interrupts_taken = 0
        self.mem_reads = 0

    # ------------------------------------------------------------------
    # Memory (what the DMA engine touches)
    # ------------------------------------------------------------------

    def memory_latency_ps(self) -> int:
        """One memory access worth of latency, with jitter + contention."""
        jitter = self.rng.randint(0, self.mem_jitter_ps) if self.mem_jitter_ps else 0
        return self.mem_base_ps + jitter + self.contention_ps

    def memory_read(self, key: Optional[bytes]) -> Optional[bytes]:
        self.mem_reads += 1
        if key is None:
            return None
        return self.memory.get(bytes(key))

    def memory_write(self, key: Optional[bytes], data: bytes) -> None:
        if key is not None:
            self.memory[bytes(key)] = bytes(data)

    def store(self, key: bytes, value: bytes) -> None:
        """Pre-populate host memory (workload setup)."""
        self.memory[bytes(key)] = bytes(value)

    # ------------------------------------------------------------------
    # Descriptor rings (what the DMA engine fills/drains)
    # ------------------------------------------------------------------

    def write_rx(self, packet: Packet, queue: int) -> None:
        if not 0 <= queue < len(self.rx_rings):
            queue = 0
        packet.meta.host_rx_ps = self.now
        ctx = packet.trace
        if ctx is not None:
            if ctx.tracer is not None:
                ctx.tracer.instant(ctx, "host", self.name, self.now,
                                   (("queue", queue),))
            if ctx.int_ is not None:
                # The sink: the ring holds the frame without its trailer.
                ctx.int_.on_host_deliver(packet, ctx, queue, self.now)
        self.rx_rings[queue].append(packet)
        self.rx_delivered += 1

    def pop_tx(self, queue: int) -> Optional[bytes]:
        if not 0 <= queue < len(self.tx_rings):
            return None
        ring = self.tx_rings[queue]
        return ring.popleft() if ring else None

    def enqueue_tx(self, frame: bytes, queue: int = 0) -> None:
        """Software posts a frame and rings the doorbell."""
        if not 0 <= queue < len(self.tx_rings):
            raise ValueError(f"{self.name}: no TX queue {queue}")
        self.tx_rings[queue].append(frame)
        if self.pcie is not None:
            self.pcie.ring_doorbell(queue)

    # ------------------------------------------------------------------
    # Interrupts and software
    # ------------------------------------------------------------------

    def interrupt(self, completion_count: int) -> None:
        """PCIe engine raised an interrupt; software runs after a delay."""
        self.interrupts_taken += 1
        self.schedule(self.software_delay_ps, self._software_pass)

    def _software_pass(self) -> None:
        for queue, ring in enumerate(self.rx_rings):
            while ring:
                packet = ring.popleft()
                if self.software_handler is not None:
                    self.software_handler(packet, queue)


class HostKvServer:
    """Software key-value server running on the host CPU.

    Handles the requests the NIC could not serve (cache misses, SETs):
    GETs read host memory, SETs write it (and append to a log, matching
    the section 3.2 walk-through), and each request generates a response
    frame pushed to a TX ring with a doorbell.
    """

    def __init__(self, host: Host, per_request_ps: int = 500 * NS):
        self.host = host
        self.per_request_ps = per_request_ps
        self.sets = 0
        self.gets = 0
        self.deletes = 0
        self.log: List[bytes] = []
        host.software_handler = self.handle_packet

    def handle_packet(self, packet: Packet, queue: int) -> None:
        try:
            frame = parse_frame(packet.data)
            if not frame.is_kv or not frame.payload:
                return
            if frame.payload[0] == KvOpcode.RESPONSE:
                return
            request = frame.kv_request()
        except HeaderError:
            return
        # Model software service time by deferring the response.
        self.host.schedule(
            self.per_request_ps, self._serve, packet, frame, request, queue
        )

    def _serve(self, packet: Packet, frame, request: KvRequest, queue: int) -> None:
        if request.opcode == KvOpcode.GET:
            self.gets += 1
            value = self.host.memory.get(bytes(request.key))
            if value is None:
                response = KvResponse(
                    KvStatus.NOT_FOUND, request.tenant, request.request_id
                )
            else:
                response = KvResponse(
                    KvStatus.OK, request.tenant, request.request_id, value
                )
        elif request.opcode == KvOpcode.SET:
            self.sets += 1
            self.host.memory[bytes(request.key)] = bytes(request.value)
            self.log.append(bytes(request.value))
            response = KvResponse(KvStatus.OK, request.tenant, request.request_id)
        elif request.opcode == KvOpcode.DELETE:
            self.deletes += 1
            existed = self.host.memory.pop(bytes(request.key), None) is not None
            status = KvStatus.OK if existed else KvStatus.NOT_FOUND
            response = KvResponse(status, request.tenant, request.request_id)
        else:
            return
        self.host.enqueue_tx(kv_reply_frame(frame, response),
                             queue % len(self.host.tx_rings))
