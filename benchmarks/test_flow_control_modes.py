"""Experiment E6 -- section 6: lossless flow control vs lossy drops.

"What is the best way to simultaneously provide lossless forwarding ...
while also providing lossy forwarding ...?  What is the best way to
provide flow control for lossless forwarding so that neither the
heavyweight RMT pipeline nor the on-chip network are ever stalled by a
slow or overloaded engine?"

We overload one slow engine and compare the two mechanisms this library
implements:

* **backpressure** (lossless): the full engine refuses deliveries; the
  congestion tree spreads into router buffers and stalls the upstream
  path -- nothing is lost, but unrelated traffic sharing those links
  slows down (the stall the paper worries about, now measurable);
* **droppable** (lossy): the engine queue sheds the overload instead,
  and bystander traffic is untouched.

Metrics: victim (bystander) mean latency, messages lost, peak mesh
occupancy.
"""

from repro.analysis import format_table
from repro.engines.base import Engine
from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet, PanicHeader
from repro.sim import Simulator
from repro.sim.clock import US

from _util import banner, run_once

N_HOT = 40       # messages aimed at the slow engine
N_VICTIM = 20    # bystander messages crossing the same column


class Sink(Endpoint):
    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, packet):
        self.got.append((packet, self.sim.now))


class SlowEngine(Engine):
    def service_time_ps(self, packet):
        return self.clock.cycles_to_ps(1000)  # 2 us per message


def run_mode(droppable: bool):
    """Column 1 hosts the slow engine; victims cross 0,1 -> 2,1."""
    sim = Simulator()
    mesh = Mesh(sim, MeshConfig(width=3, height=2, credits=2))
    feeder = Sink(sim)
    feeder_port = mesh.bind(feeder, 0, 0)
    slow = SlowEngine(sim, "slow", queue_capacity=2, overflow="backpressure")
    slow.bind_port(mesh.bind(slow, 1, 0))
    drain = Sink(sim)
    mesh.bind(drain, 2, 0)
    victim_src = Sink(sim)
    victim_port = mesh.bind(victim_src, 0, 1)
    victim_dst = Sink(sim)
    mesh.bind(victim_dst, 2, 1)

    hot_dst = mesh.address_of(1, 0)
    drain_addr = mesh.address_of(2, 0)
    victim_addr = mesh.address_of(2, 1)

    for i in range(N_HOT):
        packet = Packet(b"\x00" * 256)
        packet.panic = PanicHeader(chain=[drain_addr], droppable=droppable)
        sim.schedule_at(i * 50_000, feeder_port.send, packet, hot_dst)
    victim_times = []
    for i in range(N_VICTIM):
        packet = Packet(b"\x00" * 256)
        packet.panic = PanicHeader(chain=[])
        packet.meta.annotations["t0"] = i * 100_000
        sim.schedule_at(i * 100_000, victim_port.send, packet, victim_addr)
    peak_in_flight = 0

    def sample():
        nonlocal peak_in_flight
        peak_in_flight = max(peak_in_flight, mesh.in_flight)
        if sim.pending_events > 1:
            sim.schedule(10_000, sample)

    sim.schedule(0, sample)
    sim.run()

    victim_lat = [
        (t - p.meta.annotations["t0"]) / US for p, t in victim_dst.got
    ]
    delivered_hot = len(drain.got)
    dropped = slow.queue.dropped
    return {
        "victim_mean_us": sum(victim_lat) / len(victim_lat),
        "hot_delivered": delivered_hot,
        "hot_dropped": dropped,
        "peak_mesh_occupancy": peak_in_flight,
    }


def test_backpressure_vs_lossy(benchmark):
    def run():
        return {
            "lossless backpressure": run_mode(droppable=False),
            "lossy drops": run_mode(droppable=True),
        }

    results = run_once(benchmark, run)

    banner("Sec 6: overloading one engine -- congestion spreading "
           "(lossless) vs shedding (lossy)")
    rows = []
    for label, r in results.items():
        rows.append([label, f"{r['victim_mean_us']:.2f}",
                     f"{r['hot_delivered']}/{N_HOT}",
                     r["hot_dropped"], r["peak_mesh_occupancy"]])
    print(format_table(
        ["mode", "bystander mean (us)", "hot delivered", "hot dropped",
         "peak mesh occupancy"],
        rows,
    ))

    lossless = results["lossless backpressure"]
    lossy = results["lossy drops"]
    # Lossless delivers everything; the congestion tree fills the mesh.
    assert lossless["hot_delivered"] == N_HOT
    assert lossless["hot_dropped"] == 0
    assert lossless["peak_mesh_occupancy"] > lossy["peak_mesh_occupancy"]
    # Lossy sheds overload and keeps the fabric clear.
    assert lossy["hot_dropped"] > 0
    assert lossy["hot_delivered"] + lossy["hot_dropped"] == N_HOT
