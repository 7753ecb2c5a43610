"""The PCIe engine: doorbells in, interrupts out.

Section 3.2: "After the DMA has completed, the DMA engine will send a
message to a PCIe engine that may generate an interrupt depending on the
interrupt coalescing state."  This engine implements that coalescing --
an interrupt fires when ``coalesce_count`` completions have accumulated
or ``coalesce_timeout_ps`` has elapsed since the first pending one --
and it is also the entry point for host doorbells (TX kicks).
"""

from __future__ import annotations

from typing import List, Optional

from repro.engines.base import Engine, EngineOutput
from repro.packet.packet import Direction, MessageKind, Packet
from repro.sim.clock import US
from repro.sim.kernel import Simulator

#: Cycles to raise one (coalesced) interrupt.
INTERRUPT_COST_CYCLES = 8


class PcieEngine(Engine):
    """Interrupt generation with coalescing, plus host doorbell injection."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        coalesce_count: int = 8,
        coalesce_timeout_ps: int = 10 * US,
    ):
        super().__init__(sim, name)
        if coalesce_count < 1:
            raise ValueError(f"{name}: coalesce_count must be >= 1")
        if coalesce_timeout_ps <= 0:
            raise ValueError(f"{name}: coalesce timeout must be positive")
        self.coalesce_count = coalesce_count
        self.coalesce_timeout_ps = coalesce_timeout_ps
        self.host = None
        #: The DMA engine's address, for forwarding doorbells.
        self.dma_addr: Optional[int] = None
        self._pending_completions = 0
        self._timeout_event = None
        self.interrupts = 0
        self.completions = 0
        self.doorbells = 0

    def attach_host(self, host) -> None:
        self.host = host

    # ------------------------------------------------------------------
    # Host-side interface
    # ------------------------------------------------------------------

    def ring_doorbell(self, tx_queue: int = 0) -> None:
        """Host writes a doorbell register: inject a TX kick to the DMA
        engine through the same unified network as everything else."""
        if self.dma_addr is None:
            raise RuntimeError(f"{self.name}: no DMA engine address configured")
        self.doorbells += 1
        doorbell = Packet(b"", MessageKind.DOORBELL)
        doorbell.meta.direction = Direction.INTERNAL
        doorbell.meta.annotations["tx_queue"] = tx_queue
        self.send(doorbell, self.dma_addr)

    # ------------------------------------------------------------------
    # Engine behaviour
    # ------------------------------------------------------------------

    def service_time_ps(self, packet: Packet) -> int:
        return self.clock.cycles_to_ps(INTERRUPT_COST_CYCLES)

    def handle(self, packet: Packet) -> List[EngineOutput]:
        if packet.kind == MessageKind.DMA_COMPLETION:
            self._on_completion()
            return []
        # Unknown messages follow their chain (e.g. control traffic).
        return [(packet, None)]

    def _on_completion(self) -> None:
        self.completions += 1
        self._pending_completions += 1
        if self._pending_completions >= self.coalesce_count:
            self._fire_interrupt()
        elif self._timeout_event is None:
            self._timeout_event = self.schedule(
                self.coalesce_timeout_ps, self._on_timeout
            )

    def _on_timeout(self) -> None:
        self._timeout_event = None
        if self._pending_completions > 0:
            self._fire_interrupt()

    def _fire_interrupt(self) -> None:
        count = self._pending_completions
        self._pending_completions = 0
        if self._timeout_event is not None:
            self.sim.cancel(self._timeout_event)
            self._timeout_event = None
        self.interrupts += 1
        if self.host is not None:
            self.host.interrupt(count)
