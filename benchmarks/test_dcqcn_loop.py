"""Experiment E9 -- the DCQCN congestion-control loop on PANIC engines.

Table 1 lists DCQCN among the offloads a programmable NIC must host.
This bench runs the full closed loop across two PANIC NICs on a cable:

  sender host --> [ratelimit] --> wire --> [ecnmark -> dma] --> receiver
       ^                                                           |
       |   CNP <-- [dcqcn engine] <-- wire <-- CNP (host responder)|
       +-----------------------------------------------------------+

The receiver's DMA path is slow (contended host memory); without
congestion control the sender's burst piles up in the receiver's DMA
queue.  With the loop enabled, CE marks trigger CNPs, the sender's
DCQCN engine cuts the rate limiter, and the receiver queue stays
bounded -- at the cost of a longer (paced) transfer.
"""

from repro.analysis import format_table
from repro.core import PanicConfig, PanicNic
from repro.engines.dcqcn import CnpResponder
from repro.packet import KvOpcode, KvRequest, build_kv_request_frame
from repro.sim import Simulator
from repro.sim.clock import US
from repro.workloads import Wire

from _util import banner, run_once

FLOW_TENANT = 7
N_FRAMES = 300
BATCH = 8
BATCH_GAP_PS = 15 * US
VALUE_BYTES = 800


def run_loop(enabled: bool):
    sim = Simulator()
    sender = PanicNic(sim, PanicConfig(
        ports=1, offloads=("ratelimit", "dcqcn")), name="sender")
    receiver = PanicNic(sim, PanicConfig(
        ports=1, offloads=("ecnmark",),
        offload_params={"ecnmark": {"k_min": 3, "k_max": 10}},
        coalesce_count=2,  # responsive notification point
    ), name="receiver")
    Wire(sim, sender, receiver)

    receiver.host.contention_ps = 3 * US  # the congestion point
    delivered = []
    receiver.host.software_handler = lambda p, q: delivered.append(sim.now)

    if enabled:
        # Receiver: mark the flow through the AQM before the DMA engine,
        # and respond to CE with CNPs.
        receiver.control.route_tenant(FLOW_TENANT, ["ecnmark"])
        CnpResponder(receiver.host, min_gap_ps=20 * US)
        # Sender: shape the flow on TX; steer returning CNPs to DCQCN.
        sender.control.route_tenant_tx(FLOW_TENANT, ["ratelimit"])
        sender.offload("ratelimit").set_rate(
            FLOW_TENANT, rate_bps=100e9, burst_bytes=16384
        )
        from repro.engines.dcqcn import CNP_UDP_PORT

        sender.control.route_udp_port(CNP_UDP_PORT, ["dcqcn"],
                                      append_dma=False)

    # The sender's application streams ECT-marked SETs in paced batches,
    # so congestion feedback can influence later batches.
    def post_batch(start: int) -> None:
        for i in range(start, min(start + BATCH, N_FRAMES)):
            frame = build_kv_request_frame(
                KvRequest(KvOpcode.SET, FLOW_TENANT, i, b"k%03d" % i,
                          b"v" * VALUE_BYTES),
                ecn=2,  # ECT(0): ECN-capable transport
            ).data
            sender.host.tx_rings[0].append(frame)
        sender.pcie.ring_doorbell(0)

    for batch_start in range(0, N_FRAMES, BATCH):
        sim.schedule_at(batch_start // BATCH * BATCH_GAP_PS,
                        post_batch, batch_start)

    min_rate = [100e9]
    if enabled:
        limiter = sender.offload("ratelimit")

        def sample_rate():
            bucket = limiter.bucket(FLOW_TENANT)
            if bucket is not None:
                min_rate[0] = min(min_rate[0], bucket.rate_bps)
            if len(delivered) < N_FRAMES:
                sim.schedule(10 * US, sample_rate)

        sim.schedule(0, sample_rate)
    sim.run()

    result = {
        "delivered": len(delivered),
        "receiver_dma_peak": receiver.dma.queue.max_occupancy,
        "makespan_us": (max(delivered) - min(delivered)) / US,
    }
    if enabled:
        result["ce_marked"] = receiver.offload("ecnmark").marked
        result["cnps"] = sender.offload("dcqcn").cnps
        result["min_rate_gbps"] = min_rate[0] / 1e9
    return result


def test_dcqcn_closed_loop(benchmark):
    def run():
        return {
            "no congestion control": run_loop(False),
            "dcqcn loop": run_loop(True),
        }

    results = run_once(benchmark, run)
    off, on = results["no congestion control"], results["dcqcn loop"]

    banner("DCQCN closed loop across two PANIC NICs "
           f"({N_FRAMES} x {VALUE_BYTES}B burst into a slow receiver)")
    print(format_table(
        ["config", "delivered", "rx DMA queue peak", "makespan (us)",
         "CE marks", "CNPs", "min rate (Gbps)"],
        [
            ["off", off["delivered"], off["receiver_dma_peak"],
             f"{off['makespan_us']:.0f}", "-", "-", "-"],
            ["on", on["delivered"], on["receiver_dma_peak"],
             f"{on['makespan_us']:.0f}", on["ce_marked"], on["cnps"],
             f"{on['min_rate_gbps']:.2f}"],
        ],
    ))

    # Everything is delivered either way (lossless fabric).
    assert off["delivered"] == on["delivered"] == N_FRAMES
    # The loop actually closed: marks happened, CNPs flowed, rate cut.
    assert on["ce_marked"] > 0
    assert on["cnps"] > 0
    assert on["min_rate_gbps"] < 50.0
    # And it did its job: receiver congestion shrank markedly.
    assert on["receiver_dma_peak"] < off["receiver_dma_peak"] * 0.7
