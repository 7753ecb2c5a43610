"""Experiment T2 -- Table 2: PPS needed for line rate, and the section
4.2 feasibility argument (F*P must cover it).

The analytical rows must match the paper (within its rounding), and a
simulated RMT pipeline engine must empirically achieve F*P admissions.
"""

from repro.analysis import (
    format_table,
    min_frame_pps,
    rmt_pipeline_pps,
    sustainable_rmt_passes,
    table2_rows,
)
from repro.engines import RmtPipelineEngine
from repro.noc import Mesh, MeshConfig
from repro.rmt import RmtProgram
from repro.sim import Simulator
from repro.sim.clock import MHZ, SEC

from _util import banner, plain_udp_packet, run_once


def measured_rmt_pps(pipelines: int, packets: int = 2000) -> float:
    """Empirical admission rate of the RMT engine at P pipelines."""
    sim = Simulator()
    mesh = Mesh(sim, MeshConfig(width=2, height=1, channel_bits=1024))
    times = []

    def handler(packet, phv):
        times.append(sim.now)
        return [(packet, 1)]

    engine = RmtPipelineEngine(
        sim, "rmt", RmtProgram("empty"), pipelines=pipelines,
        decision_handler=handler,
    )
    engine.bind_port(mesh.bind(engine, 0, 0))

    class _Sink:
        address = -1

        def receive(self, packet):
            pass

    from repro.noc import Endpoint

    class Sink(Endpoint):
        def receive(self, packet):
            pass

    mesh.bind(Sink(), 1, 0)
    for i in range(packets):
        engine._loopback(plain_udp_packet(seq=i))
    sim.run()
    span = times[-1] - times[0]
    return (packets - 1) * SEC / span


def test_table2_line_rate_pps(benchmark):
    rows = run_once(benchmark, table2_rows)

    banner("Table 2: PPS for line-rate forwarding of minimal packets")
    print(
        format_table(
            ["Line-rate", "# Eth Ports", "PPS (model)", "PPS (paper)"],
            [
                [f"{r.line_rate_gbps}Gbps", r.ports,
                 f"{r.pps_mpps:.1f}Mpps", f"{r.paper_mpps}Mpps"]
                for r in rows
            ],
        )
    )
    for row in rows:
        assert abs(row.pps_mpps - row.paper_mpps) / row.paper_mpps < 0.01


def test_section42_rmt_throughput_feasibility(benchmark):
    def run():
        return {p: measured_rmt_pps(p, packets=1000) for p in (1, 2, 4)}

    measured = run_once(benchmark, run)

    banner("Section 4.2: RMT pipeline throughput is F * P")
    rows = []
    for pipelines, pps in measured.items():
        expected = rmt_pipeline_pps(500 * MHZ, pipelines)
        rows.append([pipelines, f"{pps / 1e6:.0f}Mpps",
                     f"{expected / 1e6:.0f}Mpps"])
        assert pps == pytest_approx(expected)
    print(format_table(["pipelines (P)", "measured", "F*P model"], rows))

    # The paper's headline: two 500 MHz pipelines (1000 Mpps) can give
    # every packet of a 2x100G NIC (595 Mpps) at least one pass...
    needed = min_frame_pps(100e9, 2)
    assert rmt_pipeline_pps(500 * MHZ, 2) > needed
    # ...but NOT two passes -- hence the need for PANIC's lightweight
    # per-engine lookup tables instead of per-hop RMT traversals.
    assert sustainable_rmt_passes(500 * MHZ, 2, 100e9, 2) < 2.0
    print(
        f"\n2x100G needs {needed / 1e6:.0f} Mpps; two pipelines give 1000 "
        f"Mpps -> {sustainable_rmt_passes(500 * MHZ, 2, 100e9, 2):.2f} "
        "passes/packet (so per-offload RMT switching is infeasible)"
    )


def pytest_approx(value, rel=0.02):
    import pytest

    return pytest.approx(value, rel=rel)
