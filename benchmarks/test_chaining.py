"""Experiment E4 -- section 2.3.1: dynamic chaining.

Pipeline NICs fix the offload order in silicon; a flow needing offloads
in a different order must recirculate, burning a full extra traversal of
on-NIC bandwidth per wrong-order pair.  PANIC's logical switch routes
each packet along its own chain, so order costs only mesh hops.

Workload: every packet needs the same two offloads (checksum then DPI)
but the pipeline's physical order is [DPI, checksum].  Metrics: total
completion time for a burst, and recirculation count.

Paper's shape: the pipeline pays ~2x traversals (recirculates every
packet); PANIC's time is flat regardless of chain order.  The pipeline
is PANIC with the line as every chain (``repro.baselines.pipeline_nic``):
a reversed order names the line twice, and the traversals are the
offload tiles' own visit counts.
"""

from repro.analysis import format_table
from repro.baselines import pipeline_nic
from repro.core import PanicConfig, PanicNic
from repro.sim import Simulator
from repro.sim.clock import US

from _util import banner, plain_udp_packet, run_once

N_PACKETS = 40
GAP_PS = 200_000
LINE = ("regex", "checksum")
DPI_PARAMS = {"regex": {"patterns": [b"x"], "cycles_per_byte": 0.5}}


def pipeline_run(order):
    """Run a burst needing offloads in ``order`` through a [regex,
    checksum] line; returns (mean_latency_us, recircs, stage_visits)."""
    sim = Simulator()
    nic = pipeline_nic(sim, LINE, {1: order}, offload_params=DPI_PARAMS)
    latencies = []
    nic.host.software_handler = lambda p, q: latencies.append(
        sim.now - p.meta.nic_arrival_ps
    )
    for i in range(N_PACKETS):
        packet = plain_udp_packet(payload=b"y" * 200, seq=i, dscp=1)
        sim.schedule_at(i * GAP_PS, nic.inject, packet)
    sim.run()
    assert len(latencies) == N_PACKETS
    visits = sum(nic.offload(name).processed for name in LINE)
    # Every traversal of the line past a packet's first is a
    # recirculation.
    recircs = visits // len(LINE) - N_PACKETS
    mean_us = sum(latencies) / len(latencies) / US
    return mean_us, recircs, visits


def panic_run(order):
    sim = Simulator()
    nic = PanicNic(
        sim,
        PanicConfig(ports=1, offloads=LINE, offload_params=DPI_PARAMS),
    )
    nic.control.route_dscp(1, list(order))
    latencies = []
    nic.host.software_handler = lambda p, q: latencies.append(
        sim.now - p.meta.nic_arrival_ps
    )
    for i in range(N_PACKETS):
        packet = plain_udp_packet(payload=b"y" * 200, seq=i, dscp=1)
        sim.schedule_at(i * GAP_PS, nic.inject, packet)
    sim.run()
    assert len(latencies) == N_PACKETS
    return sum(latencies) / len(latencies) / US


def test_dynamic_chaining_vs_recirculation(benchmark):
    def run():
        return {
            "pipeline_in_order": pipeline_run(("regex", "checksum")),
            "pipeline_reversed": pipeline_run(("checksum", "regex")),
            "panic_in_order": (panic_run(("regex", "checksum")), 0, 0),
            "panic_reversed": (panic_run(("checksum", "regex")), 0, 0),
        }

    results = run_once(benchmark, run)

    banner("Sec 2.3.1: chain order vs physical layout "
           f"({N_PACKETS}-packet burst, both offloads required)")
    print(
        format_table(
            ["system", "chain order", "mean latency (us)",
             "recirculations", "stage traversals"],
            [
                ["pipeline", "matches line",
                 f"{results['pipeline_in_order'][0]:.2f}",
                 results["pipeline_in_order"][1],
                 results["pipeline_in_order"][2]],
                ["pipeline", "reversed",
                 f"{results['pipeline_reversed'][0]:.2f}",
                 results["pipeline_reversed"][1],
                 results["pipeline_reversed"][2]],
                ["panic", "matches line",
                 f"{results['panic_in_order'][0]:.2f}", 0, "n/a"],
                ["panic", "reversed",
                 f"{results['panic_reversed'][0]:.2f}", 0, "n/a"],
            ],
        )
    )

    in_order = results["pipeline_in_order"]
    reversed_ = results["pipeline_reversed"]
    # Wrong order: one recirculation per packet, doubling on-NIC
    # traversal bandwidth -- "if enough packets are recirculated, the
    # NIC may not be able to process packets at line-rate" (sec 2.3.1):
    # effective line capacity is halved.
    assert reversed_[1] == N_PACKETS
    assert in_order[1] == 0
    assert reversed_[2] == 2 * in_order[2]
    effective_capacity = in_order[2] / reversed_[2]
    print(f"\npipeline effective capacity with reversed chains: "
          f"{effective_capacity:.0%} of line rate")
    assert effective_capacity == 0.5
    # And per-packet latency strictly suffers too.
    assert reversed_[0] > in_order[0]
    # PANIC: chain order is free (within 20%: different mesh paths).
    panic_a = results["panic_in_order"][0]
    panic_b = results["panic_reversed"][0]
    assert abs(panic_a - panic_b) / panic_a < 0.2
