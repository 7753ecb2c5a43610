"""Ablation A1 -- lightweight per-engine lookup tables (section 3.1.2).

"Lightweight lookup tables reduce the load on the heavyweight RMT
pipeline" -- without them, every hop of an offload chain would re-enter
the heavyweight pipeline.  Section 4.2 works out the consequence: with
two pipelines and two 100G ports there is only ~1.68 passes/packet of
RMT headroom, so per-hop RMT switching cannot even sustain one-offload
chains at line rate.

We ablate by comparing (a) chained routing -- the reference design,
chain carried in the message header, matched by local tables -- against
(b) hop-by-hop routing -- the RMT pipeline named as the next hop after
every engine.  Metrics: heavyweight passes per packet and the analytic
line-rate headroom each mode leaves.
"""

from repro.analysis import format_table, min_frame_pps, rmt_pipeline_pps
from repro.core import PanicConfig, PanicNic
from repro.sim import Simulator
from repro.sim.clock import MHZ

from _util import banner, plain_udp_packet, run_once

N_PACKETS = 30
CHAIN = ["checksum", "regex"]


def run_mode(hop_by_hop: bool):
    sim = Simulator()
    nic = PanicNic(
        sim,
        PanicConfig(ports=1, offloads=("regex", "checksum"),
                    offload_params={"regex": {"patterns": [b"x"]}}),
    )
    if hop_by_hop:
        # Ablated: after every engine, return to the heavyweight
        # pipeline, which then issues the next single-hop chain.
        rmt = nic.rmt.address
        chain = []
        for hop in CHAIN:
            chain.extend([nic.offload(hop).address, rmt])
        chain.append(nic.dma.address)
        nic.control.route_dscp(1, chain, append_dma=False)
    else:
        nic.control.route_dscp(1, CHAIN)
    done = []
    nic.host.software_handler = lambda p, q: done.append(p)
    for i in range(N_PACKETS):
        sim.schedule_at(i * 100_000, nic.inject,
                        plain_udp_packet(seq=i, dscp=1))
    sim.run()
    assert len(done) == N_PACKETS
    return nic.rmt.processed / N_PACKETS


def test_ablation_lightweight_lookup_tables(benchmark):
    def run():
        return {
            "chained (lookup tables)": run_mode(hop_by_hop=False),
            "hop-by-hop (ablated)": run_mode(hop_by_hop=True),
        }

    results = run_once(benchmark, run)

    line_pps = min_frame_pps(100e9, 2)
    rmt_pps = rmt_pipeline_pps(500 * MHZ, 2)
    banner("Ablation: lightweight lookup tables vs per-hop RMT switching "
           f"(2-offload chain, 2x100G budget = {rmt_pps / line_pps:.2f} "
           "RMT passes/packet)")
    rows = []
    for label, passes in results.items():
        sustainable = rmt_pps / line_pps >= passes
        rows.append([label, f"{passes:.2f}",
                     "yes" if sustainable else "NO"])
    print(format_table(
        ["routing mode", "RMT passes/packet", "line rate sustainable?"],
        rows,
    ))

    chained = results["chained (lookup tables)"]
    ablated = results["hop-by-hop (ablated)"]
    # The reference design needs one pass; the ablation needs one per hop.
    assert chained == 1.0
    assert ablated >= 3.0
    # Section 4.2's punchline: only the chained mode fits the RMT budget.
    budget = rmt_pps / line_pps
    assert chained <= budget < ablated
