"""Shared machinery for the baseline NIC simulators.

Baselines reuse the *functional* engines (their ``handle`` transforms and
``service_time_ps`` cost models) but arrange them in their own topologies
instead of PANIC's mesh.  :class:`OffloadStage` adapts an engine into a
FIFO-served stage; :class:`BaseNic` provides the common external
interface (inject / host) so experiments can swap NICs.

Which offloads a packet *needs* is carried in
``packet.meta.annotations["needs"]`` (a tuple of offload names) -- the
moral equivalent of the flow tables PANIC programs; baselines without a
parser rich enough to decide this are noted per class.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.core.host import Host
from repro.engines.base import Engine
from repro.packet.packet import Packet
from repro.sim.clock import SEC
from repro.sim.kernel import Component, Simulator
from repro.sim.stats import LatencyTracker


def packet_needs(packet: Packet, offload_name: str) -> bool:
    """Does this packet's flow require the named offload?"""
    return offload_name in packet.meta.annotations.get("needs", ())


def next_required(packet: Packet) -> Optional[str]:
    """The next offload in the packet's *ordered* requirement, if any.

    Packets whose offloads must run in a specific order carry
    ``annotations["needs"]`` as an ordered tuple; ``annotations["served"]``
    records what already ran.  Returns ``None`` when nothing is pending.
    """
    needs = packet.meta.annotations.get("needs", ())
    served = packet.meta.annotations.get("served", ())
    for name in needs:
        if name not in served:
            return name
    return None


def mark_served(packet: Packet, offload_name: str) -> None:
    served = tuple(packet.meta.annotations.get("served", ()))
    packet.meta.annotations["served"] = served + (offload_name,)


class OffloadStage(Component):
    """A FIFO-served stage wrapping a functional engine.

    Packets are serviced one at a time in arrival order; a slow packet
    therefore blocks everything behind it -- the head-of-line behaviour
    the pipeline baseline inherits by construction.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        engine: Engine,
        offload_name: str,
        on_output: Callable[[Packet], None],
        passthrough_cycles: int = 1,
    ):
        super().__init__(sim, name)
        self.engine = engine
        self.offload_name = offload_name
        self.on_output = on_output
        self.passthrough_cycles = passthrough_cycles
        self._fifo: Deque[Packet] = deque()
        self._busy = False
        self.serviced = 0
        self.passed_through = 0
        self.wait_latency = LatencyTracker(f"{name}.wait")

    def accept(self, packet: Packet) -> None:
        packet.meta.annotations["stage_enq_ps"] = self.now
        self._fifo.append(packet)
        self._try_start()

    @property
    def backlog(self) -> int:
        return len(self._fifo)

    def _try_start(self) -> None:
        if self._busy or not self._fifo:
            return
        packet = self._fifo.popleft()
        self._busy = True
        enq = packet.meta.annotations.pop("stage_enq_ps", self.now)
        self.wait_latency.observe(enq, self.now)
        # Ordered chains: only apply when this offload is the *next*
        # unserved requirement; an out-of-order stage passes the packet
        # through (it will have to recirculate, section 2.3.1).
        apply_engine = next_required(packet) == self.offload_name
        if apply_engine:
            delay = self.engine.service_time_ps(packet)
        else:
            delay = self.engine.clock.cycles_to_ps(self.passthrough_cycles)
        self.schedule(delay, self._finish, packet, apply_engine)

    def _finish(self, packet: Packet, apply_engine: bool) -> None:
        self._busy = False
        if apply_engine:
            self.serviced += 1
            packet.touch(self.name)
            outputs = self.engine.handle(packet)
            for out_packet, _dest in outputs:
                mark_served(out_packet, self.offload_name)
                self.on_output(out_packet)
            if not outputs:
                # The offload swallowed the packet (e.g. a DPI drop).
                pass
        else:
            self.passed_through += 1
            self.on_output(packet)
        self._try_start()


class SimpleDma(Component):
    """A single-server DMA/PCIe path shared by the baselines."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        host: Host,
        pcie_bps: float = 120e9,
        descriptor_ps: int = 32_000,
    ):
        super().__init__(sim, name)
        self.host = host
        self.pcie_bps = pcie_bps
        self.descriptor_ps = descriptor_ps
        self._fifo: Deque[Packet] = deque()
        self._busy = False
        self.writes = 0

    def accept(self, packet: Packet) -> None:
        self._fifo.append(packet)
        self._try_start()

    def _try_start(self) -> None:
        if self._busy or not self._fifo:
            return
        packet = self._fifo.popleft()
        self._busy = True
        wire = int(packet.frame_bytes * 8 * SEC / self.pcie_bps)
        delay = self.descriptor_ps + wire + self.host.memory_latency_ps()
        self.schedule(delay, self._finish, packet)

    def _finish(self, packet: Packet) -> None:
        self._busy = False
        self.host.write_rx(packet, packet.meta.rx_queue)
        self.writes += 1
        self.host.interrupt(1)
        self._try_start()


class BaseNic:
    """Common NIC surface: ports in, host behind."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        line_rate_bps: float = 100e9,
        host: Optional[Host] = None,
    ):
        self.sim = sim
        self.name = name
        self.line_rate_bps = line_rate_bps
        self.host = host if host is not None else Host(sim, f"{name}.host")
        self.rx_count = 0
        self._rx_wire_free = 0

    def wire_time_ps(self, packet: Packet) -> int:
        return int(packet.wire_bits * SEC / self.line_rate_bps)

    def inject(self, packet: Packet, port: int = 0) -> int:
        """Serialise ``packet`` onto the RX wire; ``_rx_arrival`` (the
        subclass's front end) sees it once the last bit is in."""
        start = max(self.sim.now, self._rx_wire_free)
        arrival = start + self.wire_time_ps(packet)
        self._rx_wire_free = arrival
        self.sim.schedule_at(arrival, self._rx_arrival, packet)
        return arrival

    def _rx_arrival(self, packet: Packet) -> None:
        raise NotImplementedError
