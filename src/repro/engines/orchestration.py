"""An embedded CPU core as an engine tile: the manycore NIC of Figure 2b.

A manycore NIC hands every packet to a core, which parses it, calls the
hardware offloads it needs one at a time and finally issues the DMA
(section 2.3.2).  On PANIC's mesh that is a chain interleaving this tile
between the offloads -- ``[core, offload_1, core, offload_2, core]`` --
where every visit costs the software overhead the paper quotes:
"processing a packet in one of the cores on a manycore NIC adds a latency
of 10 us or more" (citing the Azure SmartNIC paper).  ``lanes`` is the
core count; the frame passes through unchanged.
"""

from __future__ import annotations

from repro.engines.base import Engine
from repro.packet.packet import Packet
from repro.sim.clock import US

#: One core visit: the paper's orchestration overhead.
ORCHESTRATION_PS = 10 * US


class OrchestrationCore(Engine):
    """``lanes`` run-to-completion cores, each holding a frame for
    :data:`ORCHESTRATION_PS` before it follows its chain."""

    def service_time_ps(self, packet: Packet) -> int:
        return ORCHESTRATION_PS
