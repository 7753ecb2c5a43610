"""Ablation A3 -- section 6: pass whole packets or pointers?

"Should entire packets always be passed from engines, or are there times
when it is better to instead pass pointers to packet data located in a
common packet buffer?"

We measure both designs on a chain workload with large payloads:

* **full mode** -- frames ride the mesh at full size every hop;
* **pointer mode** -- payloads park in a shared packet buffer; only
  32-byte descriptors ride the mesh, but every payload-touching engine
  pays for buffer-port access.

Expected trade-off: pointer mode slashes mesh load (an order of
magnitude for KB payloads over multi-hop chains), while the shared
buffer's ports become the new contention point -- a 1-port buffer is
measurably slower than a 4-port one under the same load.
"""

from repro.analysis import format_table
from repro.core import PanicConfig, PanicNic
from repro.sim import Simulator
from repro.sim.clock import US

from _util import banner, plain_udp_packet, run_once

N_PACKETS = 40
PAYLOAD = 1000
CHAIN = ["checksum", "regex"]


def run_mode(payload_mode, pktbuf_ports=2):
    sim = Simulator()
    nic = PanicNic(
        sim,
        PanicConfig(
            ports=1,
            offloads=("regex", "checksum"),
            offload_params={"regex": {"patterns": [b"x"]}},
            payload_mode=payload_mode,
            pktbuf_ports=pktbuf_ports,
        ),
    )
    nic.control.route_dscp(1, CHAIN)
    done = []
    nic.host.software_handler = lambda p, q: done.append(sim.now)
    for i in range(N_PACKETS):
        sim.schedule_at(
            i * 100_000, nic.inject,
            plain_udp_packet(payload=bytes(PAYLOAD), seq=i, dscp=1),
        )
    sim.run()
    assert len(done) == N_PACKETS
    mesh_bits = sum(c.bits_sent for c in nic.mesh.channels)
    makespan_us = max(done) / US
    buffer_stats = None
    if nic.payload_buffer is not None:
        buffer_stats = {
            "accesses": nic.payload_buffer.accesses,
            "high_watermark": nic.payload_buffer.high_watermark,
            "leaked": nic.payload_buffer.live_handles,
        }
    return mesh_bits, makespan_us, buffer_stats


def test_pointer_vs_full_payload(benchmark):
    def run():
        return {
            "full": run_mode("full"),
            "pointer (2 ports)": run_mode("pointer", pktbuf_ports=2),
            "pointer (1 port)": run_mode("pointer", pktbuf_ports=1),
        }

    results = run_once(benchmark, run)

    banner("Sec 6 ablation: whole packets vs pointers + shared buffer "
           f"({N_PACKETS} x {PAYLOAD}B payloads through a 2-offload chain)")
    rows = []
    for label, (bits, makespan, buf) in results.items():
        rows.append([label, f"{bits / 8 / 1024:.0f} KiB",
                     f"{makespan:.1f}",
                     buf["accesses"] if buf else "-",
                     f"{buf['high_watermark']}B" if buf else "-"])
    print(format_table(
        ["mode", "mesh traffic", "makespan (us)", "buffer accesses",
         "buffer peak"],
        rows,
    ))

    full_bits = results["full"][0]
    ptr_bits = results["pointer (2 ports)"][0]
    # Descriptors instead of KB frames: mesh load collapses.
    assert ptr_bits < full_bits / 5
    # The buffer never leaks and sees real traffic.
    buf = results["pointer (2 ports)"][2]
    assert buf["leaked"] == 0
    assert buf["accesses"] > N_PACKETS
    # The trade-off: fewer buffer ports -> more contention -> slower.
    assert (results["pointer (1 port)"][1]
            >= results["pointer (2 ports)"][1])
