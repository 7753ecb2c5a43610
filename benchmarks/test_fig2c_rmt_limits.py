"""Experiment F2c -- section 2.3.3 / Figure 2c: RMT-only NICs steer at
line rate but cannot host payload offloads; PANIC hosts them as engines.

Two measurements:

1. capability: the RMT-only NIC is PANIC with no offload tile
   (``repro.baselines.rmt_only_nic``), so a route naming any payload
   offload has no engine to resolve to and the control plane refuses it,
   while the same offload names resolve to live engines on PANIC (and a
   KV GET is actually served from the NIC).
2. what the RMT NIC *can* do it does at line rate: it steers every
   frame to a receive queue, at the RMT tile's F * P admissions.
"""

from repro.baselines import rmt_only_nic
from repro.core import PanicConfig, PanicNic
from repro.packet import KvOpcode, KvRequest, build_kv_request_frame, parse_frame
from repro.sim import Simulator

from _util import banner, plain_udp_packet, run_once

PAYLOAD_OFFLOADS = ("ipsec", "compression", "kvcache", "rdma", "regex")


def rmt_capability():
    nic = rmt_only_nic(Simulator())
    refused = []
    for offload in PAYLOAD_OFFLOADS:
        try:
            nic.control.route_dscp(1, [offload])
        except KeyError:
            refused.append(offload)
    return refused


def rmt_steering_pps(packets=500):
    sim = Simulator()
    nic = rmt_only_nic(sim)
    queues = []
    nic.host.software_handler = lambda p, q: queues.append(q)
    for i in range(packets):
        nic.inject(plain_udp_packet(seq=i, src_port=1 + i % 60000))
    sim.run()
    assert len(queues) == packets
    assert len(set(queues)) > 1  # RSS spread the flows over queues
    return nic.rmt.throughput_pps


def panic_hosts_offloads():
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1))
    nic.control.enable_kv_cache()
    nic.offload("kvcache").cache_put(b"k", b"served-on-nic")
    nic.inject(build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 1, b"k")))
    sim.run()
    hosted = [name for name in PAYLOAD_OFFLOADS if name in nic.engines]
    response = parse_frame(nic.transmitted[0].data).kv_response()
    return hosted, response.value


def test_fig2c_rmt_offload_limits(benchmark):
    def run():
        return rmt_capability(), rmt_steering_pps(), panic_hosts_offloads()

    refused, steering_pps, (hosted, value) = run_once(benchmark, run)

    banner("Fig 2c / sec 2.3.3: RMT-only NIC capability surface")
    print(f"RMT NIC refuses payload offloads : {', '.join(refused)}")
    print(f"RMT NIC steering throughput      : {steering_pps / 1e6:.0f} Mpps (F*P)")
    print(f"PANIC hosts the same offloads    : {', '.join(hosted)}")
    print(f"PANIC served KV GET from the NIC : {value!r}")

    assert set(refused) == set(PAYLOAD_OFFLOADS)
    assert set(hosted) >= {"ipsec", "compression", "kvcache", "rdma"}
    assert value == b"served-on-nic"
    assert steering_pps == 1e9  # 2 pipelines at 500 MHz
