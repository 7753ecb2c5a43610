#!/usr/bin/env python
"""A full rack scenario: client machine <-> PANIC server over a cable.

Both machines have PANIC NICs.  The client's application posts KV
requests into its own NIC's transmit rings (doorbell -> DMA -> RMT ->
wire); the server's NIC answers hot keys from its cache *without waking
the server CPU*, while cold keys fall through to the server's software
KV server.  Response latency is measured application-to-application.

Run with::

    python examples/client_server_rack.py
"""

from repro import HostKvServer, PanicConfig, PanicNic, Simulator
from repro.analysis import format_table, mesh_map, utilization_report
from repro.packet import KvOpcode, KvRequest, build_kv_request_frame, parse_frame
from repro.sim.clock import NS, US
from repro.workloads import Wire


def main() -> None:
    sim = Simulator()
    client = PanicNic(sim, PanicConfig(ports=1), name="client")
    server = PanicNic(sim, PanicConfig(ports=1), name="server")
    server.control.enable_kv_cache()
    HostKvServer(server.host)
    Wire(sim, client, server, propagation_ps=500 * NS)

    # Server state: hot keys cached on the NIC, the rest in host memory.
    for i in range(10):
        server.offload("kvcache").cache_put(b"hot%d" % i, b"hot-value")
    for i in range(100):
        server.host.store(b"cold%d" % i, b"cold-value")

    # Client application: issue requests, time the responses.
    sent = {}
    latencies = {"hot": [], "cold": []}

    def client_rx(packet, queue):
        frame = parse_frame(packet.data)
        if not frame.is_kv or frame.payload[0] != KvOpcode.RESPONSE:
            return
        response = frame.kv_response()
        kind, t0 = sent.pop(response.request_id)
        latencies[kind].append((sim.now - t0) / US)

    client.host.software_handler = client_rx

    request_id = 0
    for i in range(30):
        kind = "hot" if i % 2 == 0 else "cold"
        key = b"%s%d" % (kind.encode(), i % 10)
        frame = build_kv_request_frame(
            KvRequest(KvOpcode.GET, 1, request_id, key)
        ).data
        sent[request_id] = (kind, sim.now)
        client.host.enqueue_tx(frame)
        request_id += 1
        sim.run(until_ps=sim.now + 30 * US)  # pace the client a little
    sim.run()

    print(mesh_map(server))
    print()
    rows = []
    for kind in ("hot", "cold"):
        values = latencies[kind]
        rows.append([
            kind, len(values),
            f"{sum(values) / len(values):.1f}",
            f"{max(values):.1f}",
        ])
    print(format_table(
        ["key class", "responses", "mean RTT (us)", "max RTT (us)"],
        rows,
        title="Application-to-application KV latency across the rack",
    ))
    print()
    print(f"server NIC cache hits : {server.offload('kvcache').hits}")
    print(f"server CPU interrupts : {server.host.interrupts_taken} "
          "(only the cold keys)")
    print()
    print(utilization_report(server))


if __name__ == "__main__":
    main()
