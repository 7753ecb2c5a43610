"""Experiment F2b -- section 2.3.2 / Figure 2b: manycore NICs pay ~10 us
of embedded-core orchestration latency per packet; PANIC's logical
switch forwards between engines with no CPU in the loop.

Workload: a single unloaded packet that needs one hardware offload
(checksum), measured from wire arrival to host delivery.

Paper's shape: manycore >= 10 us (Firestone et al.'s number); PANIC's
path is RMT parse + mesh hops + engine service, well under a microsecond
of NIC-side work (host DMA dominates its total).
"""

from repro.analysis import format_comparison
from repro.baselines import ManycoreNic
from repro.core import PanicConfig, PanicNic
from repro.engines import ChecksumEngine
from repro.sim import Simulator
from repro.sim.clock import US

from _util import banner, plain_udp_packet, run_once


def manycore_latency_us() -> float:
    sim = Simulator()
    nic = ManycoreNic(
        sim,
        [("checksum", ChecksumEngine(sim, "mc.csum"))],
        orchestration_ps=10 * US,  # the paper's figure
    )
    packet = plain_udp_packet()
    packet.meta.annotations["needs"] = ("checksum",)
    nic.inject(packet)
    sim.run()
    # NIC-side latency: wire arrival to host-memory delivery (the
    # interrupt/software path is identical for every NIC and excluded).
    return packet.meta.host_rx_ps / US


def panic_latency_us() -> float:
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1, offloads=("checksum",)))
    nic.control.route_dscp(1, ["checksum"])
    packet = plain_udp_packet(dscp=1)
    nic.inject(packet)
    sim.run()
    return packet.meta.host_rx_ps / US


def test_fig2b_orchestration_latency(benchmark):
    def run():
        return {
            "manycore": manycore_latency_us(),
            "panic": panic_latency_us(),
        }

    results = run_once(benchmark, run)

    banner("Fig 2b / sec 2.3.2: unloaded single-packet NIC latency (us), "
           "one offload in the chain")
    print(format_comparison("latency", results, unit="us"))

    # The paper's number: a core adds 10 us or more.
    assert results["manycore"] >= 10.0
    # PANIC needs no core: at least ~10x lower.
    assert results["panic"] < results["manycore"] / 10
