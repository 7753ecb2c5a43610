"""Experiment T3 -- Table 3: mesh bisection bandwidth and sustainable
offload-chain length.

Part 1 recomputes every row analytically (must match the paper exactly).
Part 2 validates the analytical capacity empirically: a simulated 6x6
mesh under uniform random traffic sustains offered load below the
model's capacity and saturates (builds backlog / stretches delivery)
above it.
"""

import pytest

from repro.analysis import format_table
from repro.noc import Endpoint, Mesh, MeshConfig, MeshAnalysis, table3_rows
from repro.noc.analysis import TABLE3_PAPER
from repro.sim import Simulator
from repro.sim.clock import MHZ, SEC
from repro.sim.rng import SeededRng

from _util import banner, plain_udp_packet, run_once


class CountingSink(Endpoint):
    def __init__(self):
        self.received = 0

    def receive(self, packet):
        self.received += 1


def uniform_mesh_run(k: int, channel_bits: int, load_fraction: float,
                     messages: int = 3000, frame_bytes: int = 64):
    """Offer uniform random traffic at ``load_fraction`` of the model's
    all-to-all capacity; return (delivered_fraction, makespan_stretch).

    ``makespan_stretch`` is total-finish-time / injection-window: ~1 when
    the fabric keeps up, >> 1 when it saturates.
    """
    sim = Simulator()
    mesh = Mesh(sim, MeshConfig(width=k, height=k, channel_bits=channel_bits))
    analysis = MeshAnalysis(k, k, channel_bits, 500 * MHZ)
    sinks = {}
    ports = {}
    for y in range(k):
        for x in range(k):
            sink = CountingSink()
            ports[(x, y)] = mesh.bind(sink, x, y)
            sinks[(x, y)] = sink

    bits_per_message = frame_bytes * 8
    offered_bps = analysis.capacity_bps * load_fraction
    # Aggregate inter-injection gap across all sources.
    gap_ps = int(bits_per_message * SEC / offered_bps)
    rng = SeededRng(7)
    coords = list(ports)
    when = 0
    for i in range(messages):
        src = coords[rng.randint(0, len(coords) - 1)]
        dst = coords[rng.randint(0, len(coords) - 1)]
        while dst == src:
            dst = coords[rng.randint(0, len(coords) - 1)]
        packet = plain_udp_packet(payload=bytes(22), seq=i)
        sim.schedule_at(when, ports[src].send, packet, mesh.address_of(*dst))
        when += gap_ps
    injection_window = when
    sim.run()
    delivered = sum(s.received for s in sinks.values())
    stretch = sim.now / injection_window
    return delivered / messages, stretch


def test_table3_analytical_rows(benchmark):
    rows = run_once(benchmark, table3_rows)

    banner("Table 3: on-NIC topology throughput and chain length")
    print(
        format_table(
            ["Line-rate", "Freq", "Bit Width", "Topo",
             "Bisec BW (model/paper)", "Chain Len (model/paper)"],
            [
                [f"{r.line_rate_gbps}Gbps x{r.ports}", f"{r.freq_mhz}MHz",
                 r.channel_bits, r.topo,
                 f"{r.bisection_gbps:.0f} / {paper_bw:.0f} Gbps",
                 f"{r.chain_length:.2f} / {paper_chain:.2f}"]
                for r, (paper_bw, paper_chain) in zip(rows, TABLE3_PAPER)
            ],
        )
    )
    for row, (paper_bw, paper_chain) in zip(rows, TABLE3_PAPER):
        assert row.bisection_gbps == pytest.approx(paper_bw)
        assert row.chain_length == pytest.approx(paper_chain, abs=0.005)


def test_table3_mesh_capacity_validated_by_simulation(benchmark):
    def run():
        under = uniform_mesh_run(6, 64, load_fraction=0.6)
        over = uniform_mesh_run(6, 64, load_fraction=2.0)
        return under, over

    (under_frac, under_stretch), (over_frac, over_stretch) = run_once(
        benchmark, run
    )

    banner("Table 3 validation: simulated 6x6 mesh vs analytical capacity")
    print(
        format_table(
            ["offered load (x capacity)", "delivered", "makespan stretch"],
            [["0.6x", f"{under_frac * 100:.1f}%", f"{under_stretch:.2f}"],
             ["2.0x", f"{over_frac * 100:.1f}%", f"{over_stretch:.2f}"]],
        )
    )
    # Lossless: everything is always delivered eventually...
    assert under_frac == 1.0 and over_frac == 1.0
    # ...but below capacity the fabric keeps up with injection, while
    # well above capacity the run takes much longer than the window.
    assert under_stretch < 1.2
    assert over_stretch > 1.5
