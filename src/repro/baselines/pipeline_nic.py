"""The pipelined ("bump in the wire") NIC of Figure 2a.

Offloads sit in a fixed line between the wire and the DMA path; every
packet flows through every stage in order.  Section 2.3.1's two
limitations emerge directly from this structure:

1. packets traverse offloads they do not need (latency + bandwidth
   waste), and a slow offload head-of-line blocks unrelated packets
   (a ``bypass_enabled`` knob models the optional bypass logic the paper
   concedes can mitigate -- but not remove -- this);
2. chaining is static: a packet needing offloads in a different order
   than the physical line must *recirculate* through the whole pipeline,
   costing a full extra traversal of on-NIC bandwidth.

RX: wire -> stage_1 -> ... -> stage_N -> DMA -> host.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.baselines.base_nic import BaseNic, OffloadStage, SimpleDma, packet_needs
from repro.core.host import Host
from repro.engines.base import Engine
from repro.packet.packet import Direction, Packet
from repro.sim.kernel import Simulator

#: Safety valve: a packet recirculating more than this is misconfigured.
MAX_RECIRCULATIONS = 8


class PipelineNic(BaseNic):
    """Figure 2a: a static chain of offloads on the wire."""

    def __init__(
        self,
        sim: Simulator,
        offload_line: Sequence[Tuple[str, Engine]],
        name: str = "pipeline_nic",
        line_rate_bps: float = 100e9,
        host: Optional[Host] = None,
        bypass_enabled: bool = False,
        allow_recirculation: bool = True,
    ):
        super().__init__(sim, name, line_rate_bps, host)
        self.bypass_enabled = bypass_enabled
        self.allow_recirculation = allow_recirculation
        self.stage_names = [offload_name for offload_name, _ in offload_line]
        self.stages: List[OffloadStage] = []
        self.recirculations = 0
        self.dma = SimpleDma(sim, f"{name}.dma", self.host)
        for index, (offload_name, engine) in enumerate(offload_line):
            stage = OffloadStage(
                sim,
                f"{name}.stage{index}_{offload_name}",
                engine,
                offload_name,
                on_output=self._make_forwarder(index),
            )
            self.stages.append(stage)

    # ------------------------------------------------------------------
    # RX path
    # ------------------------------------------------------------------

    def _rx_arrival(self, packet: Packet) -> None:
        packet.meta.direction = Direction.RX
        packet.meta.nic_arrival_ps = self.sim.now
        packet.meta.annotations.setdefault("recirculations", 0)
        self.rx_count += 1
        self._enter_stage(packet, 0)

    def _enter_stage(self, packet: Packet, index: int) -> None:
        if index >= len(self.stages):
            self._after_pipeline(packet)
            return
        stage = self.stages[index]
        if self.bypass_enabled and not packet_needs(packet, stage.offload_name):
            # Bypass logic skips the queue but still burns a hop of wire.
            self.sim.schedule(
                stage.engine.clock.cycles_to_ps(1),
                self._enter_stage,
                packet,
                index + 1,
            )
            return
        stage.accept(packet)

    def _make_forwarder(self, index: int):
        def forward(packet: Packet) -> None:
            self._enter_stage(packet, index + 1)

        return forward

    def _after_pipeline(self, packet: Packet) -> None:
        pending = self._unserved_offloads(packet)
        if pending and self.allow_recirculation:
            count = packet.meta.annotations.get("recirculations", 0) + 1
            if count > MAX_RECIRCULATIONS:
                raise RuntimeError(
                    f"{self.name}: packet recirculated {count} times; "
                    f"unserved offloads {pending}"
                )
            packet.meta.annotations["recirculations"] = count
            self.recirculations += 1
            # Recirculation re-enters at stage 0 and consumes a slot on
            # the (shared) internal wire, like the paper describes.
            self._enter_stage(packet, 0)
            return
        self.dma.accept(packet)

    def _unserved_offloads(self, packet: Packet) -> List[str]:
        """Offloads the packet needs, in order, that no stage applied yet."""
        needed = packet.meta.annotations.get("needs", ())
        served = packet.meta.annotations.get("served", ())
        return [
            offload_name
            for offload_name in needed
            if offload_name in self.stage_names and offload_name not in served
        ]
