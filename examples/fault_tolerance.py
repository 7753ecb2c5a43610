#!/usr/bin/env python
"""Graceful degradation when an offload engine dies mid-run.

A single-port NIC carries two IPSec-bound traffic classes over two IPSec
lanes (``ipsec`` and the instanced spare ``ipsec1``).  A seeded
:class:`~repro.faults.FaultPlan` kills the primary lane a third of the
way through the run.  The mesh-resident :class:`HealthMonitor` notices
once the lane's last heartbeat echo is older than ``timeout_ps``,
declares the tile dead, and the control plane recomputes every chain and
lookup-table route through the backup.  Throughput dips during the
detection window (those packets are black-holed, and counted) and then
recovers -- the NIC degrades instead of wedging.

Run with::

    python examples/fault_tolerance.py
"""

from repro import PanicConfig, PanicNic, Simulator
from repro.analysis import format_table
from repro.faults import FaultInjector, FaultPlan, attach_health_monitor
from repro.packet.builder import build_udp_frame
from repro.packet.packet import MessageKind, Packet
from repro.sim.clock import NS, US, format_time

N_FRAMES = 400
GAP_PS = 150 * NS
CRASH_AT = 30 * US
HORIZON = 200 * US


def build_nic(sim: Simulator) -> PanicNic:
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("ipsec", "ipsec1", "compression", "kvcache"),
    ))
    nic.set_backup("ipsec", "ipsec1")
    # Two traffic classes, one per lane; after failover both share ipsec1.
    nic.control.route_dscp(10, ["ipsec"])
    nic.control.route_dscp(12, ["ipsec1"])
    return nic


def spray(sim: Simulator, nic: PanicNic) -> None:
    def inject(i: int = 0) -> None:
        if i >= N_FRAMES:
            return
        frame = build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1", dst_ip="10.0.0.2",
            src_port=1000 + i, dst_port=9,
            dscp=10 if i % 2 == 0 else 12,
            payload=bytes(120),
        )
        nic.inject(Packet(frame, MessageKind.ETHERNET))
        sim.schedule(GAP_PS, inject, i + 1)

    inject()


def main() -> None:
    sim = Simulator()
    nic = build_nic(sim)
    monitor = attach_health_monitor(nic)
    monitor.start()

    plan = FaultPlan(seed=42).crash_engine(CRASH_AT, "ipsec")
    FaultInjector(nic, plan).arm()
    print(plan.describe())
    print()

    # Sample delivery progress so the dip-and-recover shape is visible.
    timeline = []

    def sample(last=[0]) -> None:
        delivered = nic.host.rx_delivered
        timeline.append((sim.now // US, delivered, delivered - last[0]))
        last[0] = delivered
        if sim.now < HORIZON:
            sim.schedule(20 * US, sample)

    sim.schedule(20 * US, sample)

    spray(sim, nic)
    sim.run(until_ps=HORIZON)
    monitor.stop()
    sim.run()  # drain

    stats = nic.stats()
    print(format_table(
        ["time (us)", "delivered (total)", "delivered (window)"],
        [[t, total, window] for t, total, window in timeline],
        title="Delivery progress (crash at 30 us)",
    ))
    print()
    print("failure detected at :", ", ".join(
        f"{key} @{format_time(when)}" for key, when in monitor.detected.items()
    ) or "never")
    print("primary (ipsec)     :", int(stats["ipsec"]["processed"]),
          "processed,", int(stats["faults"]["blackholed"]), "black-holed")
    print("backup (ipsec1)     :", int(stats["ipsec1"]["processed"]), "processed")
    print("delivered to host   :", int(stats["host"]["rx_delivered"]),
          f"/ {N_FRAMES}")
    print("watchdog            :",
          int(stats["faults"]["hb_failures_detected"]), "failure(s) detected,",
          int(stats["faults"]["failovers"]), "failover(s)")
    nic.mesh.assert_drained()
    print("mesh                : fully drained (0 messages in flight)")


if __name__ == "__main__":
    main()
