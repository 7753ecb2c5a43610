"""The fast path must be invisible in simulated results.

``PanicConfig.fast_path`` enables the cut-through NoC ExpressFlights, a
wall-clock mechanism only: the equivalence contract (see DESIGN.md,
"Performance model & fast path") is that every simulated observable --
delivery order, picosecond timestamps, the full ``PanicNic.stats()``
tree -- is bit-identical with the fast path forced on and forced off.  These tests enforce that
contract on the two scenarios that stress it hardest: multi-hop
chaining (maximum cut-through eligibility) and fault recovery (armed
fault injection + crash + failover, where the fast path must stand
down without perturbing anything).
"""

import pytest

from repro.core import PanicConfig, PanicNic
from repro.faults import FaultInjector, FaultPlan, attach_health_monitor
from repro.packet import Packet, build_udp_frame
from repro.sim import Simulator
from repro.sim.clock import NS, US


def _udp_packet(payload, seq, dscp, src_port=7777):
    frame = build_udp_frame(
        src_mac="02:00:00:00:00:01",
        dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1",
        dst_ip="10.0.0.2",
        src_port=src_port,
        dst_port=8888,
        payload=payload,
        dscp=dscp,
        identification=seq & 0xFFFF,
    )
    packet = Packet(frame)
    packet.meta.annotations["seq"] = seq
    return packet


def _watch_deliveries(sim, nic):
    """Record (sequence number, delivery timestamp) in delivery order."""
    deliveries = []

    def handler(packet, _queue):
        deliveries.append((packet.meta.annotations.get("seq"), sim.now))

    nic.host.software_handler = handler
    return deliveries


def run_chaining(fast_path):
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("regex", "checksum", "checksum1"),
        fast_path=fast_path,
        offload_params={"regex": {"patterns": [b"x"],
                                  "cycles_per_byte": 0.5}},
    ))
    nic.control.route_dscp(1, ["checksum", "regex", "checksum1"])
    deliveries = _watch_deliveries(sim, nic)
    # Tight gap: a mix of uncontended starts, queueing, and express
    # de-speculation as packets catch up with each other.
    for i in range(150):
        sim.schedule_at(i * 200_000, nic.inject,
                        _udp_packet(b"y" * 200, seq=i, dscp=1))
    sim.run()
    nic.mesh.assert_drained()
    return deliveries, sim.now, nic.stats()


def run_fault_recovery(fast_path):
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("ipsec", "ipsec1", "compression", "kvcache"),
        seed=3,
        fast_path=fast_path,
    ))
    nic.set_backup("ipsec", "ipsec1")
    nic.control.route_dscp(10, ["ipsec"])
    nic.control.route_dscp(12, ["ipsec1"])
    monitor = attach_health_monitor(nic, period_ps=2 * US, timeout_ps=4 * US)
    monitor.start()
    plan = FaultPlan(seed=3).crash_engine(30 * US, "ipsec")
    FaultInjector(nic, plan).arm()
    deliveries = _watch_deliveries(sim, nic)

    def inject(i=0):
        if i >= 200:
            return
        nic.inject(_udp_packet(bytes(120), seq=i, src_port=1000 + i,
                               dscp=10 if i % 2 == 0 else 12))
        sim.schedule(150 * NS, inject, i + 1)

    inject()
    sim.run(until_ps=150 * US)
    monitor.stop()
    sim.run()
    return deliveries, sim.now, nic.stats()


SCENARIOS = {
    "chaining": run_chaining,
    "fault_recovery": run_fault_recovery,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_fast_path_is_bit_identical(scenario):
    run = SCENARIOS[scenario]
    fast_deliveries, fast_now, fast_stats = run(fast_path=True)
    slow_deliveries, slow_now, slow_stats = run(fast_path=False)
    # Same packets, same order, same picosecond delivery timestamps.
    assert fast_deliveries == slow_deliveries
    assert len(fast_deliveries) > 0
    # Simulation ends at the same instant.
    assert fast_now == slow_now
    # Every counter, histogram and meter in the stats tree agrees.
    assert fast_stats == slow_stats


def test_fast_path_fires_fewer_events_on_chaining():
    """The fast path must actually elide kernel events (else it is dead
    code); the equivalence above proves the elision is invisible."""

    def events(fast_path):
        sim = Simulator()
        nic = PanicNic(sim, PanicConfig(
            ports=1, offloads=("checksum", "checksum1"),
            fast_path=fast_path, batch_execution=False,
        ))
        nic.control.route_dscp(1, ["checksum", "checksum1"])
        for i in range(50):
            sim.schedule_at(i * 20_000_000, nic.inject,
                            _udp_packet(b"y" * 200, seq=i, dscp=1))
        sim.run()
        return sim.events_fired

    assert events(True) < events(False)
