#!/usr/bin/env python
"""Head-to-head: PANIC vs the three existing NIC architectures (Fig. 2).

One mixed workload -- 90% plain packets, 10% needing a slow DPI scan --
runs over all four NICs.  Each baseline is a PanicNic configuration
(``repro.baselines``), so all four share the engines, mesh, DMA/PCIe and
host model.  Reported per NIC: mean and p99 NIC-side latency of the
plain ("victim") packets, plus each architecture's characteristic
pathology.

Run with::

    python examples/baseline_comparison.py
"""

from repro import PanicConfig, PanicNic, Simulator
from repro.analysis import format_table
from repro.baselines import manycore_nic, pipeline_nic, rmt_only_nic
from repro.packet import Packet, build_udp_frame
from repro.sim.clock import US

N = 60
GAP_PS = 150_000
DPI_PARAMS = {"regex": {"patterns": [b"scan"], "cycles_per_byte": 40.0}}
#: DSCP 1 carries the DPI class; every other frame needs no offload.
DPI_CLASS = {1: ("regex",)}


def traffic():
    packets = []
    for i in range(N):
        dpi = i % 10 == 0
        payload = b"scan me " * 120 if dpi else b"fast"
        frame = build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1", dst_ip="10.0.0.2",
            src_port=7000 + i % 16, dst_port=8888,
            payload=payload, dscp=1 if dpi else 0, identification=i,
        )
        packet = Packet(frame)
        packet.meta.annotations["seq"] = i
        packets.append((packet, dpi))
    return packets


def victim_stats(sim, nic):
    done = {}
    nic.host.software_handler = (
        lambda p, q: done.__setitem__(p.meta.annotations["seq"], sim.now)
    )
    victims = []
    for i, (packet, dpi) in enumerate(traffic()):
        sim.schedule_at(i * GAP_PS, nic.inject, packet)
        if not dpi:
            victims.append((packet.meta.annotations["seq"], i * GAP_PS))
    sim.run()
    lat = sorted(done[s] - t for s, t in victims)
    mean = sum(lat) / len(lat) / US
    p99 = lat[int(len(lat) * 0.99) - 1] / US
    return mean, p99


def main() -> None:
    rows = []

    sim = Simulator()
    nic = pipeline_nic(sim, ("regex", "checksum"), DPI_CLASS,
                       offload_params=DPI_PARAMS)
    mean, p99 = victim_stats(sim, nic)
    rows.append(["pipeline (Fig 2a)", f"{mean:.1f}", f"{p99:.1f}",
                 "HOL blocking behind slow DPI"])

    sim = Simulator()
    nic = manycore_nic(sim, ("regex",), DPI_CLASS, offload_params=DPI_PARAMS)
    mean, p99 = victim_stats(sim, nic)
    rows.append(["manycore (Fig 2b)", f"{mean:.1f}", f"{p99:.1f}",
                 "~10us core orchestration on every packet"])

    sim = Simulator()
    nic = rmt_only_nic(sim)
    try:
        nic.control.route_dscp(1, ["regex"])
        dpi_note = "??"
    except KeyError:
        dpi_note = "cannot host the DPI offload at all"
    mean, p99 = victim_stats(sim, nic)
    rows.append(["rmt-only (Fig 2c)", f"{mean:.1f}", f"{p99:.1f}", dpi_note])

    sim = Simulator()
    panic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("regex", "checksum"), offload_params=DPI_PARAMS))
    panic.control.route_dscp(1, ["regex"])
    mean, p99 = victim_stats(sim, panic)
    rows.append(["PANIC", f"{mean:.1f}", f"{p99:.1f}",
                 "DPI chained per packet; victims unaffected"])

    print(format_table(
        ["architecture", "victim mean (us)", "victim p99 (us)", "notes"],
        rows,
        title=f"{N}-packet mixed burst; 10% needs slow DPI",
    ))


if __name__ == "__main__":
    main()
