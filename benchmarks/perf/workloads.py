"""Canonical wall-clock workloads for the kernel perf harness.

Every workload builds a PANIC NIC, drives a deterministic packet load
through it, and reports how much *wall-clock* the event loop burned next
to how much *simulated* work it retired.  The same workload runs with
the fast path on (``PanicConfig.fast_path=True``: kernel fast lanes +
cut-through NoC ExpressFlights) and off (pure per-hop slow path); the
simulated results are bit-identical either way (see
``tests/test_fast_path_equivalence.py``), so any wall-clock difference
is pure simulator overhead.

Workloads mirror the repo's canonical scenarios:

``chaining_uncontended``
    The headline multi-hop chaining workload: a five-engine offload
    chain with generous inter-packet gaps, so every NoC traversal is
    uncontended and eligible for cut-through.  This is where the fast
    path collapses the most per-hop events.
``chaining_contended``
    The same two-offload chain as ``benchmarks/test_chaining.py`` at a
    tight packet gap: queues form, express flights de-speculate, and
    the slow path carries most hops.  Measures fast-path overhead when
    it *cannot* win.
``isolation``
    The slack-scheduler isolation scenario (contended DMA, a bandwidth
    hog vs. a latency-sensitive tenant) from
    ``benchmarks/test_isolation_slack.py``.
``fault_recovery``
    The crash + heartbeat-failover scenario from
    ``benchmarks/test_fault_recovery.py`` -- armed fault injection
    forces the NoC fast path to stand down on the faulted lanes.

Every workload also takes ``batch`` (``PanicConfig.batch_execution``):
on top of the fast path, the kernel coalesces a frame's whole
trajectory into a single event (``repro.core.train``), again
bit-identical to the scalar run.

Each runner returns a dict with ``wall_seconds`` (event-loop time),
``events_fired``, ``sim_ps`` (final simulated time), ``bits_delivered``
(frame bits handed to host software) and ``deliveries``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from repro.core import PanicConfig, PanicNic
from repro.faults import FaultInjector, FaultPlan, attach_health_monitor
from repro.packet import Packet, build_udp_frame
from repro.sim import Simulator
from repro.sim.clock import MS, NS, US
from repro.workloads import KvsWorkload, TenantSpec


def _udp_packet(payload: bytes, seq: int, dscp: int = 0,
                src_port: int = 7777) -> Packet:
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


def _timed_run(sim: Simulator, bits: Dict[str, int]) -> dict:
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "events_fired": sim.events_fired,
        "sim_ps": sim.now,
        "bits_delivered": bits["bits"],
        "deliveries": bits["count"],
    }


def _count_deliveries(nic: PanicNic) -> Dict[str, int]:
    bits = {"bits": 0, "count": 0}

    def handler(packet, _queue):
        bits["bits"] += packet.frame_bytes * 8
        bits["count"] += 1

    nic.host.software_handler = handler
    return bits


def chaining_uncontended(fast_path: bool = True, seed: int = 1,
                         frames: int = 400, telemetry=None,
                         batch: bool = False) -> dict:
    """Deep five-engine chain, one packet in flight at a time."""
    sim = Simulator()
    chain = ["checksum", "checksum1", "checksum2", "checksum3", "checksum4"]
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=tuple(chain), seed=seed, fast_path=fast_path,
        telemetry=telemetry, batch_execution=batch,
    ))
    nic.control.route_dscp(1, chain)
    bits = _count_deliveries(nic)
    gap = 20_000_000  # 20 us: each packet finishes before the next arrives
    for i in range(frames):
        sim.schedule_at(i * gap, nic.inject,
                        _udp_packet(b"y" * 200, seq=i, dscp=1))
    return _timed_run(sim, bits)


def chaining_contended(fast_path: bool = True, seed: int = 1,
                       frames: int = 400, batch: bool = False) -> dict:
    """Two-offload chain at a tight gap: queues form, cut-through yields."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("regex", "checksum"), seed=seed,
        fast_path=fast_path, batch_execution=batch,
        offload_params={"regex": {"patterns": [b"x"],
                                  "cycles_per_byte": 0.5}},
    ))
    nic.control.route_dscp(1, ["regex", "checksum"])
    bits = _count_deliveries(nic)
    for i in range(frames):
        sim.schedule_at(i * 200_000, nic.inject,
                        _udp_packet(b"y" * 200, seq=i, dscp=1))
    return _timed_run(sim, bits)


def isolation(fast_path: bool = True, seed: int = 1,
              frames: int = 100, batch: bool = False) -> dict:
    """Slack scheduling under a DMA hog (benchmarks/test_isolation_slack)."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1, seed=seed, fast_path=fast_path,
                                    batch_execution=batch))
    nic.host.contention_ps = 2 * US
    nic.control.set_tenant_slack(1, 10 * US)
    nic.control.set_tenant_slack(2, 10 * MS)
    bits = _count_deliveries(nic)
    tenants = [
        TenantSpec(1, rate_pps=50_000, latency_sensitive=True,
                   key_space=50, get_fraction=1.0),
        TenantSpec(2, rate_pps=2_000_000, key_space=500,
                   get_fraction=0.0, value_bytes=1024),
    ]
    KvsWorkload(sim, nic, tenants, requests_per_tenant=frames).start()
    return _timed_run(sim, bits)


def fault_recovery(fast_path: bool = True, seed: int = 3,
                   frames: int = 400, batch: bool = False) -> dict:
    """Mid-run engine crash + heartbeat failover (test_fault_recovery)."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("ipsec", "ipsec1", "compression", "kvcache"),
        seed=seed, fast_path=fast_path, batch_execution=batch,
    ))
    nic.set_backup("ipsec", "ipsec1")
    nic.control.route_dscp(10, ["ipsec"])
    nic.control.route_dscp(12, ["ipsec1"])
    monitor = attach_health_monitor(nic, period_ps=2 * US, timeout_ps=4 * US)
    monitor.start()
    plan = FaultPlan(seed=seed).crash_engine(30 * US, "ipsec")
    FaultInjector(nic, plan).arm()
    bits = _count_deliveries(nic)

    def inject(i: int = 0) -> None:
        if i >= frames:
            return
        nic.inject(_udp_packet(bytes(120), seq=i, src_port=1000 + i,
                               dscp=10 if i % 2 == 0 else 12))
        sim.schedule(150 * NS, inject, i + 1)

    inject()
    start = time.perf_counter()
    sim.run(until_ps=250 * US)
    monitor.stop()
    sim.run()  # drain in-flight work after the horizon
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "events_fired": sim.events_fired,
        "sim_ps": sim.now,
        "bits_delivered": bits["bits"],
        "deliveries": bits["count"],
    }


#: Registry consumed by run_kernel_bench.  Order matters only for display.
WORKLOADS: Dict[str, Callable[..., dict]] = {
    "chaining_uncontended": chaining_uncontended,
    "chaining_contended": chaining_contended,
    "isolation": isolation,
    "fault_recovery": fault_recovery,
}
