"""The manycore NIC of Figure 2b.

Packets are load-balanced across embedded CPU cores; a core *orchestrates*
each packet's processing -- parsing it, calling hardware offload engines
one at a time, and finally issuing the DMA.  Section 2.3.2: "manycore
designs use a CPU to generate requests to hardware offloads as needed ...
processing a packet in one of the cores on a manycore NIC adds a latency
of 10 us or more" (citing the Azure SmartNIC paper).

Model: ``cores`` single-threaded servers.  Per packet a core pays
``orchestration_ps`` (the software overhead) plus a round trip to each
needed offload engine (each engine is a FIFO station shared by all
cores), then hands the packet to the DMA path.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Sequence, Tuple

from repro.baselines.base_nic import BaseNic, OffloadStage, SimpleDma, next_required
from repro.core.host import Host
from repro.engines.base import Engine
from repro.packet.packet import Direction, Packet
from repro.sim.clock import US
from repro.sim.kernel import Simulator
from repro.sim.stats import LatencyTracker

#: The paper's number for core orchestration overhead.
DEFAULT_ORCHESTRATION_PS = 10 * US


class _Core:
    """One embedded CPU core: a single-threaded run-to-completion server."""

    __slots__ = ("index", "busy", "queue")

    def __init__(self, index: int):
        self.index = index
        self.busy = False
        self.queue: Deque[Packet] = deque()


class ManycoreNic(BaseNic):
    """Figure 2b: embedded cores orchestrate packet processing."""

    def __init__(
        self,
        sim: Simulator,
        offload_engines: Sequence[Tuple[str, Engine]],
        name: str = "manycore_nic",
        cores: int = 8,
        orchestration_ps: int = DEFAULT_ORCHESTRATION_PS,
        per_offload_call_ps: int = 1 * US,
        line_rate_bps: float = 100e9,
        host: Optional[Host] = None,
    ):
        super().__init__(sim, name, line_rate_bps, host)
        if cores < 1:
            raise ValueError(f"{name}: need at least one core")
        self.orchestration_ps = orchestration_ps
        self.per_offload_call_ps = per_offload_call_ps
        self._cores = [_Core(i) for i in range(cores)]
        self._rr_next = 0
        self.dma = SimpleDma(sim, f"{name}.dma", self.host)
        self.stations: Dict[str, OffloadStage] = {}
        for index, (offload_name, engine) in enumerate(offload_engines):
            self.stations[offload_name] = OffloadStage(
                sim,
                f"{name}.hw{index}_{offload_name}",
                engine,
                offload_name,
                on_output=self._on_station_output,
            )
        self.core_latency = LatencyTracker(f"{name}.core_latency")
        self.orchestrations = 0

    # ------------------------------------------------------------------
    # RX
    # ------------------------------------------------------------------

    def _rx_arrival(self, packet: Packet) -> None:
        packet.meta.direction = Direction.RX
        packet.meta.nic_arrival_ps = self.sim.now
        self.rx_count += 1
        # The on-chip network cannot parse headers (section 2.3.2), so it
        # can only spray packets across cores round-robin.
        core = self._cores[self._rr_next]
        self._rr_next = (self._rr_next + 1) % len(self._cores)
        core.queue.append(packet)
        self._core_try_start(core)

    # ------------------------------------------------------------------
    # Core orchestration
    # ------------------------------------------------------------------

    def _core_try_start(self, core: _Core) -> None:
        if core.busy or not core.queue:
            return
        packet = core.queue.popleft()
        core.busy = True
        packet.meta.annotations["core"] = core.index
        packet.meta.annotations["core_start_ps"] = self.sim.now
        self.orchestrations += 1
        # The orchestration overhead: software parse + decide.
        self.sim.schedule(self.orchestration_ps, self._dispatch_next, core, packet)

    def _dispatch_next(self, core: _Core, packet: Packet) -> None:
        """Send the packet to its next needed offload, or finish it."""
        pending = next_required(packet)
        if pending is not None and pending in self.stations:
            packet.meta.annotations["await_core"] = core.index
            # The core-to-engine request costs a software call each way.
            self.sim.schedule(
                self.per_offload_call_ps,
                self.stations[pending].accept,
                packet,
            )
            return
        self._core_finish(core, packet)

    def _on_station_output(self, packet: Packet) -> None:
        """Hardware engine done: the owning core resumes orchestration."""
        core_index = packet.meta.annotations.get("await_core")
        if core_index is None:
            raise RuntimeError(f"{self.name}: engine output lost its core")
        core = self._cores[core_index]
        self.sim.schedule(self.per_offload_call_ps, self._dispatch_next, core, packet)

    def _core_finish(self, core: _Core, packet: Packet) -> None:
        started = packet.meta.annotations.pop("core_start_ps", self.sim.now)
        self.core_latency.observe(started, self.sim.now)
        core.busy = False
        self.dma.accept(packet)
        self._core_try_start(core)
