"""Experiment F1 -- Figure 1: the logical PANIC architecture.

Every message flows: engine -> (parse/route via RMT) -> per-engine
scheduling queue -> engine, with the logical switch and scheduler
implemented *distributed* across engines.  This bench drives one message
through every logical element and verifies the architecture diagram's
invariants on the observed path (every packet is traced; a trail is
the engines its spans name) and timing.
"""

from repro.core import PanicConfig, PanicNic
from repro.packet import KvOpcode, KvRequest, build_kv_request_frame
from repro.sim import Simulator
from repro.telemetry import TelemetryConfig

from _util import banner, run_once


def run_flow():
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=2, telemetry=TelemetryConfig(sample_every=1)))
    nic.control.enable_kv_cache()
    nic.offload("kvcache").cache_put(b"k", b"v")
    request = build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 1, b"k"))
    nic.inject(request, port=1)
    sim.run()
    response = nic.transmitted[0]
    path = nic.telemetry.tracer.path
    return {
        "request_trail": path(request),
        "response_trail": path(response),
        "egress_port": response.meta.egress_port,
        "rmt_decisions": nic.rmt.decisions,
        "mesh_in_flight": nic.mesh.in_flight,
        "chain": request.panic.chain if request.panic else None,
        "deadline": request.panic.slack_ps if request.panic else None,
    }


def test_fig1_logical_architecture(benchmark):
    result = run_once(benchmark, run_flow)

    banner("Fig 1: one GET through the logical switch and scheduler")
    print("request trail :", " -> ".join(result["request_trail"]))
    print("response trail:", " -> ".join(result["response_trail"]))
    print("chain header  :", result["chain"])
    print("slack deadline:", result["deadline"], "ps")
    print("RMT decisions :", result["rmt_decisions"])

    # Ethernet port -> RMT -> offload engine, per Figure 1.
    assert result["request_trail"][0] == "panic.eth1"
    assert result["request_trail"][1] == "panic.rmt"
    assert "panic.kvcache" in result["request_trail"]
    # The response re-enters the pipeline and leaves at the ingress port.
    assert result["response_trail"] == ["panic.rmt", "panic.eth1"]
    assert result["egress_port"] == 1
    # The RMT pipeline computed a chain and a slack deadline.
    assert result["chain"] is not None and len(result["chain"]) >= 1
    assert result["deadline"] > 0
    # Nothing is stuck in the fabric afterwards (lossless + drained).
    assert result["mesh_in_flight"] == 0
