"""Ablation A2 -- mesh vs single crossbar, and the unified network
(section 3.1.2 and the section 3.1 footnote).

(1) Mesh vs crossbar.  A behavioural simulation cannot show wire length
directly, so the crossbar model derates its clock with port count (the
physical penalty of a large flat switch).  The architectural consequence
the paper leans on is scaling: mesh bisection grows with the topology
while a crossbar's per-port bandwidth shrinks as the switch grows.

(2) Unified vs split networks.  The footnote argues one network of width
2W beats two dedicated networks of width W: when one traffic class is
idle, its wires are idle too.  We run an asymmetric load (all packet
traffic, no DMA-class traffic) over both provisionings of the same mesh
and compare makespan.
"""

from repro.analysis import format_table
from repro.noc import Endpoint, Mesh, MeshAnalysis, MeshConfig
from repro.sim import Simulator
from repro.sim.clock import MHZ

from _util import banner, plain_udp_packet, run_once


class CountingSink(Endpoint):
    def __init__(self):
        self.received = 0
        self.last_ps = 0

    def receive(self, packet):
        self.received += 1


def crossbar_vs_mesh_scaling():
    """Analytic aggregate bandwidth as the engine count grows."""
    rows = []
    for engines in (8, 16, 36, 64):
        k = int(engines ** 0.5)
        if k * k < engines:
            k += 1
        mesh = MeshAnalysis(max(2, k), max(2, k), 64, 500 * MHZ)
        mesh_bw = mesh.capacity_bps
        # Crossbar: port bandwidth at the derated clock, times ports.
        derated = 500 * MHZ / (1.0 + 0.05 * (engines - 1))
        xbar_bw = engines * 64 * derated
        rows.append((engines, mesh_bw / 1e9, xbar_bw / 1e9))
    return rows


def split_vs_unified(messages=400):
    """Makespan of an all-packet burst on a unified 128-bit mesh vs the
    same burst confined to one 64-bit plane of a split design."""
    results = {}
    for label, bits in (("unified 128b", 128), ("split 2x64b", 64)):
        sim = Simulator()
        mesh = Mesh(sim, MeshConfig(width=4, height=4, channel_bits=bits))
        sinks = {}
        ports = {}
        for y in range(4):
            for x in range(4):
                sink = CountingSink()
                ports[(x, y)] = mesh.bind(sink, x, y)
                sinks[(x, y)] = sink
        # One-class burst: packet traffic corner-to-corner rows.
        n = 0
        for i in range(messages):
            src = (i % 4, 0)
            dst = ((i * 7) % 4, 3)
            ports[src].send(plain_udp_packet(payload=bytes(240), seq=i),
                            mesh.address_of(*dst))
            n += 1
        sim.run()
        assert sum(s.received for s in sinks.values()) == n
        results[label] = sim.now / 1e6  # us
    return results


def test_ablation_fabric_choices(benchmark):
    def run():
        return crossbar_vs_mesh_scaling(), split_vs_unified()

    scaling, unified = run_once(benchmark, run)

    banner("Ablation: mesh vs crossbar aggregate bandwidth (analytic)")
    print(format_table(
        ["engines", "mesh capacity (Gbps)", "crossbar capacity (Gbps)"],
        [[e, f"{m:.0f}", f"{x:.0f}"] for e, m, x in scaling],
    ))
    banner("Ablation: unified vs split on-chip network "
           "(single-class burst makespan)")
    print(format_table(
        ["provisioning", "makespan (us)"],
        [[label, f"{us:.1f}"] for label, us in unified.items()],
    ))

    # The mesh out-provisions the crossbar at every size, and the gap
    # widens with engine count (the crossbar's derated clock caps its
    # aggregate bandwidth while mesh bisection keeps growing).
    gaps = [m - x for _e, m, x in scaling]
    assert all(m > x for _e, m, x in scaling)
    assert gaps == sorted(gaps)
    assert scaling[-1][1] > 2 * scaling[-1][2]  # 64 engines: mesh >> xbar

    # Unified network finishes the one-class burst ~2x faster: the other
    # class's wires are not idle (section 3.1 footnote).
    assert unified["unified 128b"] < unified["split 2x64b"] / 1.6
