"""Experiment E10 -- section 3.1.2: "Neighboring engines may be
configured to independently process messages or be chained to form a
longer pipeline.  This design allows for flexible trade-offs between
pipeline depth and parallelism, with more pipelines leading to more
throughput."

We sweep the two axes over the same silicon budget (two RMT engine
tiles) and measure admission throughput and per-packet latency:

* parallel: two independent pipelines (P=2, depth 1) -- double
  throughput, base latency;
* chained: one deep pipeline (P=1, depth 2) -- base throughput, double
  latency, but twice the stage budget for bigger programs.
"""

from repro.analysis import format_table
from repro.engines import RmtPipelineEngine
from repro.noc import Endpoint, Mesh, MeshConfig
from repro.rmt import MatchKey, RmtProgram
from repro.sim import Simulator
from repro.sim.clock import SEC

from _util import banner, plain_udp_packet, run_once

PACKETS = 400


class Sink(Endpoint):
    def receive(self, packet):
        pass


def run_config(pipelines: int, chained: int):
    sim = Simulator()
    mesh = Mesh(sim, MeshConfig(width=2, height=1, channel_bits=1024))
    program = RmtProgram("sweep")
    for i in range(6):
        program.add_table(f"t{i}", [MatchKey("udp.dst_port")])
    admissions = []

    def handler(packet, phv):
        admissions.append(sim.now)
        return [(packet, 1)]

    engine = RmtPipelineEngine(
        sim, "rmt", program, pipelines=pipelines,
        chained_engines=chained, decision_handler=handler,
    )
    engine.bind_port(mesh.bind(engine, 0, 0))
    mesh.bind(Sink(), 1, 0)
    for i in range(PACKETS):
        engine._loopback(plain_udp_packet(seq=i))
    sim.run()
    span = admissions[-1] - admissions[0]
    throughput_mpps = (PACKETS - 1) * SEC / span / 1e6
    return throughput_mpps, engine.latency_ps / 1000


def test_depth_vs_parallelism(benchmark):
    def run():
        return {
            "2 parallel pipelines (P=2)": run_config(2, 1),
            "1 chained pipeline (depth 2)": run_config(1, 2),
        }

    results = run_once(benchmark, run)

    banner("Sec 3.1.2: RMT engine depth vs parallelism "
           "(same two-tile budget)")
    print(format_table(
        ["configuration", "throughput (Mpps)", "latency (ns)",
         "stage budget"],
        [
            ["2 parallel pipelines", f"{results['2 parallel pipelines (P=2)'][0]:.0f}",
             f"{results['2 parallel pipelines (P=2)'][1]:.0f}", "6"],
            ["1 chained pipeline", f"{results['1 chained pipeline (depth 2)'][0]:.0f}",
             f"{results['1 chained pipeline (depth 2)'][1]:.0f}", "12"],
        ],
    ))

    parallel_tp, parallel_lat = results["2 parallel pipelines (P=2)"]
    chained_tp, chained_lat = results["1 chained pipeline (depth 2)"]
    # More pipelines -> more throughput (exactly 2x here).
    assert parallel_tp == 2 * chained_tp
    # Chaining -> more depth: double the latency.
    assert chained_lat == 2 * parallel_lat
