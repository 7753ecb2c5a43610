#!/usr/bin/env python
"""DCQCN congestion control running entirely on PANIC engines.

Two machines on a cable.  The sender streams a bulk flow; the receiver's
host memory is slow, so its DMA queue builds.  Three PANIC engines close
the classic DCQCN loop (Zhu et al., SIGCOMM 2015):

* the receiver's ``ecnmark`` engine RED-marks the flow CE as the DMA
  queue deepens;
* the receiver host answers CE with CNPs (congestion notifications);
* the sender's ``dcqcn`` engine catches the CNPs and throttles the
  flow's token bucket in the ``ratelimit`` engine, with timer-driven
  recovery afterwards.

Run with::

    python examples/congestion_control.py
"""

from repro import PanicConfig, PanicNic, Simulator
from repro.analysis import format_table
from repro.engines.dcqcn import CNP_UDP_PORT, CnpResponder
from repro.packet import KvOpcode, KvRequest, build_kv_request_frame
from repro.sim.clock import US
from repro.workloads import Wire

FLOW = 7
N_FRAMES = 200
BATCH = 8
BATCH_GAP_PS = 15 * US


def main() -> None:
    sim = Simulator()
    sender = PanicNic(sim, PanicConfig(
        ports=1, offloads=("ratelimit", "dcqcn")), name="sender")
    receiver = PanicNic(sim, PanicConfig(
        ports=1, offloads=("ecnmark",),
        offload_params={"ecnmark": {"k_min": 3, "k_max": 10}},
        coalesce_count=2,
    ), name="receiver")
    Wire(sim, sender, receiver)
    receiver.host.contention_ps = 3 * US

    delivered = []
    receiver.host.software_handler = lambda p, q: delivered.append(sim.now)

    # Program the loop.  (The CnpResponder wraps whatever software
    # handler is already installed, so register it last.)
    receiver.control.route_tenant(FLOW, ["ecnmark"])
    CnpResponder(receiver.host, min_gap_ps=20 * US)
    sender.control.route_tenant_tx(FLOW, ["ratelimit"])
    sender.offload("ratelimit").set_rate(FLOW, rate_bps=100e9,
                                         burst_bytes=16384)
    sender.control.route_udp_port(CNP_UDP_PORT, ["dcqcn"], append_dma=False)

    def post_batch(start: int) -> None:
        for i in range(start, min(start + BATCH, N_FRAMES)):
            frame = build_kv_request_frame(
                KvRequest(KvOpcode.SET, FLOW, i, b"k%03d" % i, b"v" * 800),
                ecn=2,
            ).data
            sender.host.tx_rings[0].append(frame)
        sender.pcie.ring_doorbell(0)

    for batch in range(0, N_FRAMES, BATCH):
        sim.schedule_at(batch // BATCH * BATCH_GAP_PS, post_batch, batch)

    # Sample the controlled rate over time.
    timeline = []

    def sample():
        bucket = sender.offload("ratelimit").bucket(FLOW)
        rate = bucket.rate_bps if bucket else 100e9
        timeline.append((sim.now / US, rate / 1e9,
                         receiver.dma.backlog))
        if len(delivered) < N_FRAMES:
            sim.schedule(40 * US, sample)

    sim.schedule(0, sample)
    sim.run()

    print(format_table(
        ["time (us)", "sender rate (Gbps)", "receiver DMA queue"],
        [[f"{t:.0f}", f"{rate:.2f}", queue] for t, rate, queue in timeline[:20]],
        title="DCQCN control timeline (first 20 samples)",
    ))
    print()
    print(f"delivered          : {len(delivered)}/{N_FRAMES} (lossless)")
    print(f"CE marks           : {receiver.offload('ecnmark').marked}")
    print(f"CNPs processed     : {sender.offload('dcqcn').cnps}")
    print(f"receiver queue peak: {receiver.dma.queue.max_occupancy}")


if __name__ == "__main__":
    main()
