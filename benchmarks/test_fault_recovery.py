"""Experiment: graceful degradation under a mid-run engine crash.

The robustness claim behind PANIC's decoupled design: because chains are
data (a header computed by the RMT pipeline, steered by per-engine
lookup tables), losing an engine is a *control-plane* event -- recompute
the chains around the dead tile and the datapath keeps flowing.  We
measure that directly:

* **baseline**: two IPSec lanes share the load of two traffic classes;
* **crash + failover**: one lane dies a third of the way in; the
  mesh-resident health monitor detects the dead tile via heartbeat
  timeout and re-steers everything onto the surviving lane.

Acceptance: the crashed run retains >= 50% of baseline deliveries, the
mesh fully drains (0 in-flight messages -- no wedged credits), and two
runs of the same seeded :class:`FaultPlan` produce identical stats.
"""

from repro.analysis import format_table
from repro.core.config import PanicConfig
from repro.core.panic import PanicNic
from repro.faults import FaultInjector, FaultPlan, attach_health_monitor
from repro.sim import Simulator
from repro.sim.clock import NS, US

from _util import banner, plain_udp_packet, run_once

N_FRAMES = 400
GAP_PS = 150 * NS
CRASH_AT = 30 * US
HORIZON = 250 * US


def run_scenario(crash: bool, seed: int = 3):
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("ipsec", "ipsec1", "compression", "kvcache"),
        seed=seed,
    ))
    nic.set_backup("ipsec", "ipsec1")
    nic.control.route_dscp(10, ["ipsec"])
    nic.control.route_dscp(12, ["ipsec1"])
    monitor = attach_health_monitor(nic, period_ps=2 * US, timeout_ps=4 * US)
    monitor.start()
    if crash:
        plan = FaultPlan(seed=seed).crash_engine(CRASH_AT, "ipsec")
        FaultInjector(nic, plan).arm()

    def inject(i: int = 0) -> None:
        if i >= N_FRAMES:
            return
        packet = plain_udp_packet(
            payload=bytes(120), src_port=1000 + i,
            dscp=10 if i % 2 == 0 else 12, seq=i,
        )
        nic.inject(packet)
        sim.schedule(GAP_PS, inject, i + 1)

    inject()
    sim.run(until_ps=HORIZON)
    monitor.stop()
    sim.run()  # drain everything still in flight

    stats = nic.stats()
    return {
        "delivered": stats["host"]["rx_delivered"],
        "primary_processed": stats["ipsec"]["processed"],
        "backup_processed": stats["ipsec1"]["processed"],
        "blackholed": stats["faults"]["blackholed"],
        "failovers": stats["faults"]["failovers"],
        "hb_failures_detected": stats["faults"]["hb_failures_detected"],
        "in_flight": nic.mesh.in_flight,
        "stats": stats,
    }


def test_crash_failover_degrades_gracefully(benchmark):
    def run():
        return {
            "baseline": run_scenario(crash=False),
            "crash+failover": run_scenario(crash=True),
            "crash repeat": run_scenario(crash=True),
        }

    results = run_once(benchmark, run)
    baseline = results["baseline"]
    crashed = results["crash+failover"]
    repeat = results["crash repeat"]

    banner("Fault recovery: 1 of 2 IPSec lanes dies at 30 us")
    rows = [
        [label,
         int(r["delivered"]),
         int(r["primary_processed"]),
         int(r["backup_processed"]),
         int(r["blackholed"]),
         int(r["hb_failures_detected"]),
         r["in_flight"]]
        for label, r in results.items()
    ]
    print(format_table(
        ["scenario", "delivered", "ipsec", "ipsec1", "black-holed",
         "watchdog", "in flight"],
        rows,
    ))
    retained = crashed["delivered"] / baseline["delivered"]
    print(f"\nthroughput retained after crash: {retained:.1%}")

    # Baseline is clean: no faults, everything delivered.
    assert baseline["delivered"] == N_FRAMES
    assert baseline["failovers"] == 0

    # The crash was detected and failed over exactly once.
    assert crashed["hb_failures_detected"] == 1
    assert crashed["failovers"] == 1
    # Only the detection-window packets were lost; the backup carried
    # the rest, retaining at least half the baseline throughput.
    assert retained >= 0.5
    assert crashed["delivered"] + crashed["blackholed"] >= N_FRAMES
    # Losslessness outside the dead tile: nothing wedged in the mesh.
    assert baseline["in_flight"] == 0
    assert crashed["in_flight"] == 0

    # Determinism: the same plan + seed reproduces identical stats.
    assert crashed["stats"] == repeat["stats"]
