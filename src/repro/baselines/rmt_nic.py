"""The RMT-only NIC of Figure 2c (FlexNIC-style).

Incoming packets flow through a programmable match+action pipeline that
parses them, steers flows to receive queues, and can rewrite headers --
all at line rate -- before a DMA stage writes them to the host.

The characteristic *limitation* (section 2.3.3) is enforced, not merely
documented: every stage must finish in bounded per-stage work, so
attempting to attach a payload offload (IPSec, compression, anything
needing buffering or DMA waits) raises :class:`UnsupportedOffloadError`.
What the RMT NIC *can* do -- steering, counting, header rewrites -- it
does at full line rate, which the throughput benches confirm.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base_nic import BaseNic, SimpleDma
from repro.core.host import Host
from repro.packet.packet import Direction, Packet
from repro.rmt.pipeline import RmtPipeline, RmtProgram
from repro.sim.clock import MHZ, Clock
from repro.sim.kernel import Simulator
from repro.sim.stats import Counter

#: Offload families that fundamentally cannot run inside an RMT stage.
UNSUPPORTED_OFFLOADS = frozenset(
    {"ipsec", "compression", "kvcache", "rdma", "regex", "dma_wait"}
)


class UnsupportedOffloadError(NotImplementedError):
    """Raised when asking the RMT-only NIC to host a payload offload."""


class RmtNic(BaseNic):
    """Figure 2c: parser + M+A pipeline + DMA, nothing else."""

    def __init__(
        self,
        sim: Simulator,
        program: RmtProgram,
        name: str = "rmt_nic",
        pipelines: int = 1,
        freq_hz: float = 500 * MHZ,
        line_rate_bps: float = 100e9,
        host: Optional[Host] = None,
    ):
        super().__init__(sim, name, line_rate_bps, host)
        self.pipeline = RmtPipeline(program)
        self.pipelines = pipelines
        self.clock = Clock(freq_hz)
        self._next_accept = 0
        self.dma = SimpleDma(sim, f"{name}.dma", self.host)
        self.steered = Counter(f"{name}.steered")
        self.dropped = Counter(f"{name}.dropped")

    # ------------------------------------------------------------------
    # Capability surface
    # ------------------------------------------------------------------

    def attach_offload(self, offload_name: str) -> None:
        """Refuse payload offloads, per section 2.3.3."""
        if offload_name.lower() in UNSUPPORTED_OFFLOADS:
            raise UnsupportedOffloadError(
                f"{self.name}: {offload_name!r} needs payload processing or "
                "DMA waits; RMT pipeline stages must complete in a single "
                "cycle (section 2.3.3)"
            )
        # Header-level functions are what the program already expresses.

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    @property
    def initiation_interval_ps(self) -> int:
        return max(1, self.clock.period_ps // self.pipelines)

    @property
    def latency_ps(self) -> int:
        return self.clock.cycles_to_ps(self.pipeline.program.num_stages + 2)

    @property
    def throughput_pps(self) -> float:
        """F * P, as in section 4.2."""
        return self.clock.freq_hz * self.pipelines

    # ------------------------------------------------------------------
    # RX
    # ------------------------------------------------------------------

    def _rx_arrival(self, packet: Packet) -> None:
        packet.meta.direction = Direction.RX
        packet.meta.nic_arrival_ps = self.sim.now
        self.rx_count.add()
        start = max(self.sim.now, self._next_accept)
        self._next_accept = start + self.initiation_interval_ps
        self.sim.schedule_at(start + self.latency_ps, self._pipeline_done, packet)

    def _pipeline_done(self, packet: Packet) -> None:
        phv = self.pipeline.process(
            packet.data,
            metadata={"direction": b"rx", "ingress_port": 0},
            now_ps=self.sim.now,
        )
        if phv.get_or("meta.drop", 0):
            self.dropped.add()
            return
        queue = int(phv.get_or("meta.rx_queue", 0))
        packet.meta.annotations["rx_queue"] = queue
        if phv.is_valid("kv.tenant"):
            packet.meta.tenant = int(phv.get("kv.tenant"))
        rewritten = RmtPipeline.deparse(phv, packet.data)
        if rewritten != packet.data:
            packet = Packet(rewritten, packet.kind, packet.meta)
        self.steered.add()
        self.dma.accept(packet)
