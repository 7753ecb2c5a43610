#!/usr/bin/env python
"""Quickstart: build a PANIC NIC, serve a key-value GET from the NIC.

Run with::

    python examples/quickstart.py

This walks the paper's headline scenario in ~40 lines: a GET for a hot
key is answered by the on-NIC cache engine -- parsed and routed by the
heavyweight RMT pipeline, scheduled by the slack-ranked PIFO, switched
over the 2D mesh -- without the host CPU ever running.
"""

from repro import PanicConfig, PanicNic, Simulator
from repro.packet import KvOpcode, KvRequest, build_kv_request_frame, parse_frame
from repro.sim.clock import format_time


def main() -> None:
    sim = Simulator()

    # A one-port 100 Gbps NIC on a 4x4 mesh with the default offload set
    # (IPSec, compression, KV cache, RDMA).
    nic = PanicNic(sim, PanicConfig(ports=1))

    # Program the logical switch: KV opcodes flow through the cache.
    nic.control.enable_kv_cache()

    # Warm the on-NIC cache with a hot key.
    nic.offload("kvcache").cache_put(b"user:42", b"{'name': 'ada'}")

    # A client GET arrives on the wire.
    request = build_kv_request_frame(
        KvRequest(KvOpcode.GET, tenant=1, request_id=1, key=b"user:42")
    )
    nic.inject(request)
    sim.run()

    # The response left the NIC without touching the host.
    [response] = nic.transmitted
    kv = parse_frame(response.data).kv_response()
    print(f"response value : {kv.value!r}")
    print(f"request path   : {' -> '.join(request.trail)}")
    print(f"finished at    : {format_time(sim.now)}")
    print(f"host CPU ran   : {nic.host.interrupts_taken} times")
    assert kv.value == b"{'name': 'ada'}"
    assert nic.host.interrupts_taken == 0


if __name__ == "__main__":
    main()
