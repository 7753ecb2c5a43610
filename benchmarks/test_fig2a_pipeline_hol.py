"""Experiment F2a -- section 2.3.1 / Figure 2a: pipeline NICs suffer
head-of-line blocking from slow offloads; PANIC does not.

Workload: 50 packets, every 10th is DPI-class (DSCP 1, large payload,
needs a slow regex scan); the rest need nothing.  Metric: p99
NIC-traversal latency of the *untouched* packets.

Paper's shape: on the pipeline NIC the untouched packets queue behind
DPI work (high p99); bypass logic mitigates; PANIC switches untouched
packets straight RMT -> DMA, so their latency is flat and small.  The
pipeline is PANIC itself with a fixed chain and no slack policy
(``repro.baselines.pipeline_nic``), so the gap is the architecture's.
"""

from repro.analysis import format_comparison
from repro.baselines import pipeline_nic
from repro.core import PanicConfig, PanicNic
from repro.sim import Simulator
from repro.sim.clock import US

from _util import banner, plain_udp_packet, run_once

N_PACKETS = 50
DPI_EVERY = 10
GAP_PS = 100_000  # 100 ns injection gap
DPI_PARAMS = {"regex": {"patterns": [b"scan"], "cycles_per_byte": 40.0}}


def _traffic():
    """Packets with seq annotations; DPI-class ones carry DSCP 1."""
    out = []
    for i in range(N_PACKETS):
        needs_dpi = i % DPI_EVERY == 0
        payload = b"scan me " * 150 if needs_dpi else b"fast"
        packet = plain_udp_packet(
            payload=payload, seq=i, dscp=1 if needs_dpi else 0,
            src_port=7000 + (i % 16),
        )
        out.append((packet, needs_dpi))
    return out


def _collect_victim_p99(sim, nic):
    done = {}
    nic.host.software_handler = (
        lambda p, q: done.__setitem__(p.meta.annotations["seq"], sim.now)
    )
    victims = []
    for i, (packet, needs_dpi) in enumerate(_traffic()):
        sim.schedule_at(i * GAP_PS, nic.inject, packet)
        if not needs_dpi:
            victims.append((packet.meta.annotations["seq"], i * GAP_PS))
    sim.run()
    lat = sorted(done[seq] - t0 for seq, t0 in victims)
    return lat[int(len(lat) * 0.99) - 1] / US


def victim_p99_pipeline(bypass: bool) -> float:
    sim = Simulator()
    # DSCP 1 needs the DPI scan; every other class needs nothing but
    # still rides the whole line unless bypass drops it from the chain.
    nic = pipeline_nic(sim, ("regex", "checksum"), {1: ("regex",)},
                       bypass=bypass, offload_params=DPI_PARAMS)
    return _collect_victim_p99(sim, nic)


def victim_p99_panic() -> float:
    sim = Simulator()
    nic = PanicNic(
        sim,
        PanicConfig(ports=1, offloads=("regex", "checksum"),
                    offload_params=DPI_PARAMS),
    )
    # The RMT program classifies DPI traffic by DSCP and chains it
    # through the regex engine; everything else flows RMT -> DMA.
    nic.control.route_dscp(1, ["regex"])
    return _collect_victim_p99(sim, nic)


def test_fig2a_hol_blocking(benchmark):
    def run():
        return {
            "pipeline (no bypass)": victim_p99_pipeline(bypass=False),
            "pipeline (bypass)": victim_p99_pipeline(bypass=True),
            "panic": victim_p99_panic(),
        }

    results = run_once(benchmark, run)

    banner("Fig 2a / sec 2.3.1: p99 latency of packets needing NO offload"
           " (us) while 10% of traffic needs slow DPI")
    print(format_comparison("victim p99 latency", results, unit="us"))

    # Paper shape: HOL blocking makes the no-bypass pipeline far worse
    # than PANIC; bypass logic mitigates it.
    assert results["pipeline (no bypass)"] > 5 * results["panic"]
    assert results["pipeline (bypass)"] < results["pipeline (no bypass)"] / 2
