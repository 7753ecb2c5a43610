"""Experiment E5 -- sections 4.3 and 6: memory pressure and lossy drops.

"PANIC introduces mechanisms unavailable in other designs that can be
used to intelligently drop packets when memory pressure is a limiting
factor" -- the per-engine PIFO drops *droppable* (attack-class) messages
first and never drops lossless ones.

Setup: a bounded DMA-engine queue, a slow (contended) host, a DoS flood
classified droppable by the RMT program (``mark_dscp_droppable``), and a
legitimate lossless tenant.  Expected shape: all legitimate packets are
delivered; drops land exclusively on the flood.
"""

from repro.core import PanicConfig, PanicNic
from repro.analysis import format_table
from repro.sim import Simulator
from repro.sim.clock import US
from repro.workloads import DosFlood, KvsWorkload, TenantSpec
from repro.workloads.dos import DOS_DSCP

from _util import banner, run_once

LEGIT = 1


def run_pressure(queue_capacity):
    sim = Simulator()
    nic = PanicNic(
        sim, PanicConfig(ports=1, queue_capacity=queue_capacity)
    )
    nic.host.contention_ps = 2 * US  # slow DMA: queues build
    nic.control.set_tenant_slack(LEGIT, 50 * US)
    nic.control.mark_dscp_droppable(DOS_DSCP)

    delivered = {"legit": 0, "dos": 0}

    def on_delivery(packet, queue):
        if packet.meta.annotations.get("dos"):
            delivered["dos"] += 1
        elif packet.meta.tenant == LEGIT:
            delivered["legit"] += 1

    nic.host.software_handler = on_delivery
    workload = KvsWorkload(
        sim, nic,
        [TenantSpec(LEGIT, rate_pps=300_000, key_space=100,
                    get_fraction=0.0, value_bytes=64)],
        requests_per_tenant=100,
    )
    flood = DosFlood(sim, nic.inject, rate_pps=3_000_000, count=400)
    workload.start()
    flood.start()
    sim.run()

    dma_drops = nic.dma.queue.dropped
    total_drops = sum(e.queue.dropped for e in nic.engines.values())
    return {
        "legit_delivered": delivered["legit"],
        "dos_delivered": delivered["dos"],
        "dos_injected": flood.injected,
        "dma_drops": dma_drops,
        "total_drops": total_drops,
        "dma_queue_peak": nic.dma.queue.max_occupancy,
    }


def test_memory_pressure_drops_attack_traffic_only(benchmark):
    def run():
        return {
            "bounded (cap 16)": run_pressure(queue_capacity=16),
            "unbounded": run_pressure(queue_capacity=None),
        }

    results = run_once(benchmark, run)

    banner("Sec 4.3/6: bounded engine queues under a DoS flood "
           "(legit tenant lossless, flood droppable)")
    rows = []
    for label, r in results.items():
        rows.append([
            label, r["legit_delivered"], "100",
            f"{r['dos_delivered']}/{r['dos_injected']}",
            r["total_drops"], r["dma_queue_peak"],
        ])
    print(format_table(
        ["config", "legit delivered", "legit sent", "DoS delivered/sent",
         "drops", "DMA queue peak"],
        rows,
    ))

    bounded = results["bounded (cap 16)"]
    unbounded = results["unbounded"]
    # Every legitimate (lossless) packet survives in both configs.
    assert bounded["legit_delivered"] == 100
    assert unbounded["legit_delivered"] == 100
    # Bounded queues shed flood traffic; the drops are real and land
    # only on droppable messages (legit loss would have raised).
    assert bounded["total_drops"] > 0
    assert bounded["dos_delivered"] < bounded["dos_injected"]
    # Without bounds nothing is dropped but the queue balloons.
    assert unbounded["total_drops"] == 0
    assert unbounded["dma_queue_peak"] > bounded["dma_queue_peak"]
