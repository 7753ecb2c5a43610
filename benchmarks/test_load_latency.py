"""Experiment E8 -- load/latency characterization of the PANIC NIC.

The conclusion claims PANIC "is able to scale performance with
increasing line-rates"; the standard way to show a fabric holds up is
the load-latency curve: offered load as a fraction of what the RX path
sustains, against mean NIC-side delivery latency.  The curve must be
flat at low load and turn up toward saturation -- and the knee must sit
near the high end, not at 50%.

Workload: IMIX frames (7:4:1 blend of 64/570/1500 B) into one port.
"""

from repro.analysis import format_table
from repro.core import PanicConfig, PanicNic
from repro.sim import Simulator
from repro.sim.clock import SEC, US
from repro.sim.rng import SeededRng
from repro.workloads import PoissonSource
from repro.workloads.generator import imix_factory

from _util import banner, run_once

N_PACKETS = 300


def measure_capacity_pps() -> float:
    """Empirical RX service capacity: saturate and divide."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1))
    done = []
    nic.host.software_handler = lambda p, q: done.append(
        p.meta.host_rx_ps
    )
    factory = imix_factory(rng=SeededRng(7))
    for i in range(200):
        nic.inject(factory(i))  # back-to-back burst: wire paces at 100G
    sim.run()
    span = max(done) - min(done)
    return (len(done) - 1) * SEC / span


def run_load(load_fraction: float, service_pps: float) -> float:
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1))
    latencies = []

    def on_delivery(packet, queue):
        # NIC-side latency: wire arrival -> DMA write into host memory.
        # (Measuring to *software* would be dominated by interrupt
        # coalescing, which shrinks with load -- a different, real
        # effect, but not the queueing curve under test.)
        written = packet.meta.host_rx_ps
        if written is not None and packet.meta.nic_arrival_ps is not None:
            latencies.append((written - packet.meta.nic_arrival_ps) / US)

    nic.host.software_handler = on_delivery
    source = PoissonSource(
        sim, "load.src", nic.inject,
        imix_factory(rng=SeededRng(2)),
        rate_pps=service_pps * load_fraction,
        rng=SeededRng(3),
        count=N_PACKETS,
    )
    source.start()
    sim.run()
    assert len(latencies) == N_PACKETS
    return sum(latencies) / len(latencies)


def test_load_latency_curve(benchmark):
    loads = (0.2, 0.5, 0.8, 0.95)

    def run():
        capacity = measure_capacity_pps()
        return capacity, {load: run_load(load, capacity) for load in loads}

    capacity, curve = run_once(benchmark, run)

    banner("Load vs latency: IMIX traffic into one 100G port "
           f"(RX service capacity measured at {capacity / 1e6:.1f} Mpps)")
    print(format_table(
        ["offered load", "mean NIC latency (us)"],
        [[f"{load:.0%}", f"{lat:.2f}"] for load, lat in curve.items()],
    ))

    values = [curve[load] for load in loads]
    # Latency grows with load...
    assert values == sorted(values)
    # ...stays flat through mid loads (no premature saturation)...
    assert curve[0.5] < 2.5 * curve[0.2]
    # ...and the saturation knee shows up by 95%.
    assert curve[0.95] > 1.5 * curve[0.5]
